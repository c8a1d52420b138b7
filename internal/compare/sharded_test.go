package compare

import (
	"reflect"
	"runtime"
	"testing"

	"varbench/internal/stats"
	"varbench/internal/xrand"
)

func shardedPairs(n int, diff float64, seed uint64) []stats.Pair {
	r := xrand.New(seed)
	pairs := make([]stats.Pair, n)
	for i := range pairs {
		base := r.NormFloat64()
		pairs[i] = stats.Pair{A: base + diff, B: base + 0.3*r.NormFloat64()}
	}
	return pairs
}

func TestEvaluateShardedWorkerInvariance(t *testing.T) {
	pairs := shardedPairs(29, 1.0, 3)
	ref, err := PAB{}.Evaluate(pairs, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0), 64} {
		res, err := PAB{}.Evaluate(pairs, 11, w)
		if err != nil {
			t.Fatal(err)
		}
		if res != ref {
			t.Errorf("workers=%d: %+v != serial reference %+v", w, res, ref)
		}
	}
	if ref.Decision != SignificantAndMeaningful {
		t.Errorf("dominant pairs judged %v", ref.Decision)
	}
}

func TestEvaluateShardedTooFewPairs(t *testing.T) {
	if _, err := (PAB{}).Evaluate(nil, 1, 4); err == nil {
		t.Error("empty pairs accepted")
	}
	if _, err := (PAB{}).Evaluate(shardedPairs(1, 1, 1), 1, 4); err == nil {
		t.Error("single pair accepted")
	}
}

func TestEvaluateUnpairedShardedWorkerInvariance(t *testing.T) {
	r := xrand.New(5)
	a := make([]float64, 30)
	b := make([]float64, 25)
	for i := range a {
		a[i] = r.NormFloat64() + 1
	}
	for i := range b {
		b[i] = r.NormFloat64()
	}
	ref, err := PAB{}.EvaluateUnpaired(a, b, 13, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		res, err := PAB{}.EvaluateUnpaired(a, b, 13, w)
		if err != nil {
			t.Fatal(err)
		}
		if res != ref {
			t.Errorf("workers=%d: %+v != serial reference %+v", w, res, ref)
		}
	}
	if _, err := (PAB{}).EvaluateUnpaired(a[:1], b, 13, 2); err == nil {
		t.Error("single measure accepted")
	}
}

func TestAcrossDatasetsShardedOrderAndWorkerInvariance(t *testing.T) {
	ds := []DatasetPairs{
		{Name: "d1", Pairs: shardedPairs(30, 2.0, 1)},
		{Name: "d2", Pairs: shardedPairs(30, 1.5, 2)},
		{Name: "d3", Pairs: shardedPairs(30, 2.5, 3)},
	}
	ref, err := AcrossDatasets(ds, PAB{}, 0.05, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := AcrossDatasets(ds, PAB{}, 0.05, 7, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, many) {
		t.Error("sharded multi-dataset result depends on worker count")
	}
	// Per-dataset streams are keyed by (seed, name): shuffling the dataset
	// list permutes the outcomes without changing any of them.
	shuffled := []DatasetPairs{ds[2], ds[0], ds[1]}
	perm, err := AcrossDatasets(shuffled, PAB{}, 0.05, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]DatasetOutcome{}
	for _, d := range perm {
		byName[d.Dataset] = d
	}
	for _, d := range ref {
		if got := byName[d.Dataset]; got != d {
			t.Errorf("dataset %s changed under reordering:\n %+v\n %+v", d.Dataset, got, d)
		}
	}
	if !allMeaningful(ref) {
		t.Errorf("uniform winner rejected: %+v", ref)
	}
}

func TestSaturatedGammaKeepsMeaningfulReachable(t *testing.T) {
	// Regression for the γ=1 clamp: at the saturation ceiling a total
	// winner (every pair A>B, CI [1,1]) must still be judged meaningful,
	// and the old clamp at exactly 1.0 made that impossible.
	pairs := make([]stats.Pair, 20)
	for i := range pairs {
		pairs[i] = stats.Pair{A: 1, B: 0}
	}
	res, err := PAB{Gamma: stats.GammaMax}.Evaluate(pairs, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != SignificantAndMeaningful {
		t.Errorf("total winner at saturated γ judged %v", res.Decision)
	}
	if res.CI.Lo <= stats.GammaMax {
		t.Errorf("CI.Lo = %v, expected the degenerate [1,1] interval", res.CI.Lo)
	}
}
