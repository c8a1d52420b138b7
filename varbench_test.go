package varbench

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"varbench/internal/xrand"
)

// fixedN is the paper's fixed-N protocol as an Experiment: exactly n
// serially collected pairs, no early stop.
func fixedN(a, b RunFunc, n int, seed uint64) Experiment {
	return Experiment{A: a, B: b, Seed: seed, MaxRuns: n, EarlyStop: EarlyStopOff, Parallelism: 1}
}

func TestCollectPairedSharesSeeds(t *testing.T) {
	var seedsA, seedsB []uint64
	a := func(seed uint64) (float64, error) { seedsA = append(seedsA, seed); return 1, nil }
	b := func(seed uint64) (float64, error) { seedsB = append(seedsB, seed); return 0, nil }
	res, err := fixedN(a, b, 5, 42).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Datasets[0]; len(d.ScoresA) != 5 || len(d.ScoresB) != 5 || len(seedsA) != 5 {
		t.Fatal("wrong lengths")
	}
	for i := range seedsA {
		if seedsA[i] != seedsB[i] {
			t.Fatal("pairing broken: different seeds for A and B")
		}
	}
	// Distinct runs get distinct seeds.
	seen := map[uint64]bool{}
	for _, s := range seedsA {
		if seen[s] {
			t.Fatal("seed reuse across runs")
		}
		seen[s] = true
	}
}

func TestCollectPairedPropagatesErrors(t *testing.T) {
	bad := func(uint64) (float64, error) { return 0, errSentinel }
	ok := func(uint64) (float64, error) { return 1, nil }
	ctx := context.Background()
	if _, err := fixedN(bad, ok, 3, 1).Run(ctx); !errors.Is(err, errSentinel) {
		t.Errorf("A error not propagated: %v", err)
	}
	if _, err := fixedN(ok, bad, 3, 1).Run(ctx); !errors.Is(err, errSentinel) {
		t.Errorf("B error not propagated: %v", err)
	}
	if _, err := fixedN(ok, ok, 1, 1).Run(ctx); err == nil {
		t.Error("n=1 should error")
	}
}

// pairedComparison is Analyze reduced to its Comparison.
func pairedComparison(a, b []float64, opts ...Option) (Comparison, error) {
	res, err := Analyze(a, b, opts...)
	if err != nil {
		return Comparison{}, err
	}
	return res.Comparison, nil
}

type sentinel struct{}

func (sentinel) Error() string { return "boom" }

var errSentinel = sentinel{}

func TestCompareDominantAlgorithm(t *testing.T) {
	r := xrand.New(1)
	n := 40
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		base := r.NormFloat64()
		a[i] = base + 2
		b[i] = base + 0.2*r.NormFloat64()
	}
	c, err := pairedComparison(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.Conclusion != SignificantAndMeaningful {
		t.Errorf("conclusion = %v (%s)", c.Conclusion, c)
	}
	if c.PAB < 0.95 || c.CILo <= 0.5 {
		t.Errorf("PAB stats wrong: %s", c)
	}
	if c.MeanA <= c.MeanB {
		t.Error("means inverted")
	}
	if c.RecommendedN != 29 {
		t.Errorf("recommended N = %d", c.RecommendedN)
	}
	if !strings.Contains(c.String(), "significant and meaningful") {
		t.Errorf("String() = %q", c.String())
	}
}

func TestCompareNullIsNotSignificant(t *testing.T) {
	r := xrand.New(2)
	n := 30
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64()
	}
	c, err := pairedComparison(a, b, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if c.Conclusion == SignificantAndMeaningful {
		t.Errorf("null comparison declared meaningful: %s", c)
	}
}

func TestCompareOptionValidation(t *testing.T) {
	a := []float64{1, 2, 3}
	if _, err := Analyze(a, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Analyze(a, a, WithGamma(0.4)); err == nil {
		t.Error("γ ≤ 0.5 should error")
	}
	if _, err := Analyze(a, a, WithGamma(1.0)); err == nil {
		t.Error("γ ≥ 1 should error")
	}
	if _, err := Analyze([]float64{1}, []float64{2}); err == nil {
		t.Error("single pair should error")
	}
}

func TestCompareDeterministicWithSeed(t *testing.T) {
	r := xrand.New(3)
	n := 25
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = r.NormFloat64() + 0.5
		b[i] = r.NormFloat64()
	}
	c1, err := pairedComparison(a, b, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := pairedComparison(a, b, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if c1.CILo != c2.CILo || c1.CIHi != c2.CIHi {
		t.Error("same seed gave different CIs")
	}
}

func TestCompareGammaAffectsConclusion(t *testing.T) {
	// A modest effect: meaningful at γ=0.55, not at γ=0.95.
	r := xrand.New(4)
	n := 200
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = r.NormFloat64() + 1.0
		b[i] = r.NormFloat64()
	}
	low, err := pairedComparison(a, b, WithGamma(0.55))
	if err != nil {
		t.Fatal(err)
	}
	high, err := pairedComparison(a, b, WithGamma(0.99))
	if err != nil {
		t.Fatal(err)
	}
	if low.Conclusion != SignificantAndMeaningful {
		t.Errorf("γ=0.55: %s", low)
	}
	if high.Conclusion != SignificantNotMeaningful {
		t.Errorf("γ=0.99: %s", high)
	}
}

func TestCompareUnpaired(t *testing.T) {
	r := xrand.New(8)
	a := make([]float64, 35)
	b := make([]float64, 25) // unequal sizes are fine unpaired
	for i := range a {
		a[i] = r.Normal(2, 1)
	}
	for i := range b {
		b[i] = r.NormFloat64()
	}
	res, err := Analyze(a, b, WithUnpaired())
	if err != nil {
		t.Fatal(err)
	}
	c := res.Comparison
	if c.Conclusion != SignificantAndMeaningful {
		t.Errorf("unpaired dominance: %s", c)
	}
	if c.N != 25 {
		t.Errorf("N = %d, want min size 25", c.N)
	}
	if _, err := Analyze(a, b, WithUnpaired(), WithGamma(0.3)); err == nil {
		t.Error("bad γ accepted")
	}
	if _, err := Analyze([]float64{1}, b, WithUnpaired()); err == nil {
		t.Error("single measure accepted")
	}
}

func TestSampleSize(t *testing.T) {
	if SampleSize(0.75) != 29 {
		t.Errorf("SampleSize(0.75) = %d, want 29", SampleSize(0.75))
	}
	if SampleSize(0.9) >= SampleSize(0.75) {
		t.Error("larger γ should need fewer samples")
	}
}

func TestSummarize(t *testing.T) {
	r := xrand.New(5)
	scores := make([]float64, 50)
	for i := range scores {
		scores[i] = r.Normal(0.8, 0.02)
	}
	s := Summarize(scores)
	if s.N != 50 {
		t.Error("N wrong")
	}
	if math.Abs(s.Mean-0.8) > 0.02 {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.Std <= 0 || s.StdErr >= s.Std {
		t.Errorf("std/stderr wrong: %v %v", s.Std, s.StdErr)
	}
	if s.NormalP < 0.01 {
		t.Errorf("normal data rejected: p=%v", s.NormalP)
	}
	// Degenerate input gets NaN normality, not a panic.
	tiny := Summarize([]float64{1, 2})
	if !math.IsNaN(tiny.NormalP) {
		t.Error("n=2 should give NaN normality p")
	}
}

func TestEndToEndWorkflow(t *testing.T) {
	// The full recommended protocol on two synthetic "pipelines" whose true
	// P(A>B) ≈ Φ(0.8/√2) ≈ 0.71 — strong but not overwhelming.
	runner := func(shift float64) RunFunc {
		return func(seed uint64) (float64, error) {
			r := xrand.New(seed)
			_ = r.Uint64()
			return xrand.New(seed^0xABCD).NormFloat64()*0.02 + shift, nil
		}
	}
	n := SampleSize(0.75)
	res, err := fixedN(runner(0.85), runner(0.84), n, 11).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != 29 {
		t.Fatalf("collected %d pairs", res.Pairs)
	}
	c := res.Comparison
	t.Logf("workflow: %s", c)
	if c.N != c.RecommendedN {
		t.Error("sample size bookkeeping wrong")
	}
}
