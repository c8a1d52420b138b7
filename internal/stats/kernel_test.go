package stats

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"varbench/internal/xrand"
)

// kernelWorkerGrid is the worker sweep the satellite spec pins: serial, a
// small fixed pool, and whatever the machine offers.
func kernelWorkerGrid() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

func randomSample(r *xrand.Source, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return x
}

func randomPairs(r *xrand.Source, n int) []Pair {
	p := make([]Pair, n)
	for i := range p {
		base := r.NormFloat64()
		a := base + 0.3*r.NormFloat64()
		b := base + 0.3*r.NormFloat64()
		// Exercise the tie (+½) arm of the PAB kernel too.
		if r.Bernoulli(0.2) {
			b = a
		}
		p[i] = Pair{A: a, B: b}
	}
	return p
}

// ciEqual distinguishes bit-level equality including NaN endpoints (== is
// false for NaN).
func ciEqual(a, b CI) bool {
	eq := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return eq(a.Lo, b.Lo) && eq(a.Hi, b.Hi) && a.Level == b.Level
}

// bufferedPAB is the buffered reference for PABKernel: each resample is
// materialized with xrand.SampleInto and handed to PABKernel.Stat.
type bufferedPAB struct{}

func (bufferedPAB) Stat(pairs []Pair) float64 { return PABKernel{}.Stat(pairs) }

func (bufferedPAB) ResampleInto(out []float64, pairs []Pair, r *xrand.Source) {
	buf := make([]Pair, len(pairs))
	for b := range out {
		xrand.SampleInto(r, buf, pairs)
		out[b] = PABKernel{}.Stat(buf)
	}
}

// TestFusedKernelsMatchClosures is the fused/buffered equivalence property
// test: PABKernel must produce bit-identical CIs to its buffered reference,
// for random inputs, across the worker grid, and consume a caller stream
// exactly as the reference does. The buffered two-sample adapter must draw
// all of a, then all of b, per resample. This is the determinism contract
// of kernel.go made executable.
func TestFusedKernelsMatchClosures(t *testing.T) {
	r := xrand.New(1234)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(40)
		k := 50 + r.Intn(300)
		level := 0.8 + 0.15*r.Float64()
		seed := r.Uint64()
		x := randomSample(r, n)
		pairs := randomPairs(r, n)
		y := randomSample(r, 2+r.Intn(40))

		for _, w := range kernelWorkerGrid() {
			fused := PairedPercentileBootstrapKernel(pairs, PABKernel{}, k, level, seed, w)
			buffered := PairedPercentileBootstrapKernel(pairs, bufferedPAB{}, k, level, seed, w)
			if !ciEqual(fused, buffered) {
				t.Fatalf("trial %d workers=%d: fused %+v != buffered %+v", trial, w, fused, buffered)
			}
		}
		rf, rb := xrand.New(seed), xrand.New(seed)
		fused, buffered := make([]float64, k), make([]float64, k)
		PABKernel{}.ResampleInto(fused, pairs, rf)
		bufferedPAB{}.ResampleInto(buffered, pairs, rb)
		for i := range fused {
			if math.Float64bits(fused[i]) != math.Float64bits(buffered[i]) {
				t.Fatalf("trial %d resample %d: fused %v != buffered %v", trial, i, fused[i], buffered[i])
			}
		}
		if rf.Uint64() != rb.Uint64() {
			t.Fatalf("trial %d: fused kernel consumed the stream differently", trial)
		}

		meanDiff := TwoSampleStatFunc(func(a, b []float64) float64 { return Mean(a) - Mean(b) })
		got := make([]float64, k)
		ra, rr := xrand.New(seed), xrand.New(seed)
		meanDiff.ResampleInto(got, x, y, ra)
		bufA, bufB := make([]float64, len(x)), make([]float64, len(y))
		for i := range got {
			for j := range bufA {
				bufA[j] = x[rr.Intn(len(x))]
			}
			for j := range bufB {
				bufB[j] = y[rr.Intn(len(y))]
			}
			if want := Mean(bufA) - Mean(bufB); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d two-sample resample %d: %v != reference %v", trial, i, got[i], want)
			}
		}
		if ra.Uint64() != rr.Uint64() {
			t.Fatalf("trial %d: two-sample adapter consumed the stream differently", trial)
		}
	}
}

// TestKernelStatsMatchReferences pins PABKernel.Stat to the reference
// definition on the full (un-resampled) sample.
func TestKernelStatsMatchReferences(t *testing.T) {
	r := xrand.New(7)
	pairs := randomPairs(r, 23)
	wins := 0.0
	for _, pr := range pairs {
		switch {
		case pr.A > pr.B:
			wins++
		case pr.A == pr.B:
			wins += 0.5
		}
	}
	if got, want := (PABKernel{}).Stat(pairs), wins/float64(len(pairs)); got != want {
		t.Errorf("PABKernel.Stat = %v, want %v", got, want)
	}
}

// TestBootstrapDegenerateInputs covers the degenerate-input guard: k ≤ 0,
// empty samples and a confidence level outside (0,1) answer with the
// documented NaN CI on both seeded entry points, at any worker count,
// instead of panicking inside the quantile machinery.
func TestBootstrapDegenerateInputs(t *testing.T) {
	x := []float64{1, 2, 3}
	pairs := []Pair{{1, 2}, {3, 4}}
	mw := TwoSampleStatFunc(func(a, b []float64) float64 { return MannWhitney(a, b, TwoTailed).PAB })
	isNaNCI := func(t *testing.T, ci CI, level float64) {
		t.Helper()
		if !math.IsNaN(ci.Lo) || !math.IsNaN(ci.Hi) {
			t.Errorf("degenerate input: CI %+v, want NaN endpoints", ci)
		}
		if ci.Level != level && !(math.IsNaN(level) && math.IsNaN(ci.Level)) {
			t.Errorf("degenerate input: level %v, want %v echoed", ci.Level, level)
		}
	}
	cases := []struct {
		name  string
		empty bool // use empty samples
		k     int
		level float64
	}{
		{"k-zero", false, 0, 0.95},
		{"k-negative", false, -3, 0.95},
		{"empty-sample", true, 100, 0.95},
		{"level-zero", false, 100, 0},
		{"level-one", false, 100, 1},
		{"level-negative", false, 100, -0.5},
		{"level-above-one", false, 100, 1.7},
		{"level-nan", false, 100, math.NaN()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sx, sp := x, pairs
			if c.empty {
				sx, sp = nil, nil
			}
			for _, w := range []int{1, 4} {
				isNaNCI(t, PairedPercentileBootstrapKernel(sp, PABKernel{}, c.k, c.level, 9, w), c.level)
				isNaNCI(t, TwoSampleBootstrapKernel(sx, sx, mw, c.k, c.level, 9, w), c.level)
				isNaNCI(t, TwoSampleBootstrapKernel(x, sx, mw, c.k, c.level, 9, w), c.level)
			}
		})
	}
}

// TestKernelEntryPointsMatchClosureEntryPoints locks the paired entry point
// to the buffered reference at resample counts on both sides of the shard
// count, where shard boundaries change shape.
func TestKernelEntryPointsMatchClosureEntryPoints(t *testing.T) {
	r := xrand.New(99)
	pairs := randomPairs(r, 31)
	for _, k := range []int{1, 2, 63, 64, 65, 1000} {
		fused := PairedPercentileBootstrapKernel(pairs, PABKernel{}, k, 0.9, 3, 4)
		buffered := PairedPercentileBootstrapKernel(pairs, bufferedPAB{}, k, 0.9, 3, 4)
		if !ciEqual(fused, buffered) {
			t.Fatalf("k=%d: kernel %+v != buffered %+v", k, fused, buffered)
		}
	}
}

// TestShardedWorkerInvarianceFusedGrid re-runs the worker-grid invariance
// check on the fused kernel specifically (the paired and two-sample grids
// live in bootstrap_sharded_test.go), at several K to cross shard-count
// boundaries.
func TestShardedWorkerInvarianceFusedGrid(t *testing.T) {
	r := xrand.New(31)
	pairs := randomPairs(r, 29)
	for _, k := range []int{7, 64, 1000} {
		ref := PairedPercentileBootstrapKernel(pairs, PABKernel{}, k, 0.95, 13, 1)
		for _, w := range kernelWorkerGrid() {
			ci := PairedPercentileBootstrapKernel(pairs, PABKernel{}, k, 0.95, 13, w)
			if !ciEqual(ci, ref) {
				t.Errorf("k=%d workers=%d: %+v != serial %+v", k, w, ci, ref)
			}
		}
	}
}

func TestBootstrapSmallSamples(t *testing.T) {
	// n=1: resampling a single pair is legal and collapses the CI at that
	// pair's win weight; single-element unpaired samples collapse too.
	mw := TwoSampleStatFunc(func(a, b []float64) float64 { return MannWhitney(a, b, TwoTailed).PAB })
	for _, w := range []int{1, 4} {
		for _, c := range []struct {
			pair Pair
			want float64
		}{{Pair{A: 2, B: 1}, 1}, {Pair{A: 1, B: 1}, 0.5}, {Pair{A: 1, B: 2}, 0}} {
			ci := PairedPercentileBootstrapKernel([]Pair{c.pair}, PABKernel{}, 100, 0.95, 1, w)
			if ci.Lo != c.want || ci.Hi != c.want {
				t.Errorf("workers=%d: PAB CI of singleton %+v = %+v, want collapsed at %v", w, c.pair, ci, c.want)
			}
		}
		ci := TwoSampleBootstrapKernel([]float64{3}, []float64{1}, mw, 100, 0.95, 1, w)
		if ci.Lo != 1 || ci.Hi != 1 {
			t.Errorf("workers=%d: unpaired CI of singletons = %+v, want collapsed at 1", w, ci)
		}
	}
}

func ExamplePairedPercentileBootstrapKernel() {
	pairs := []Pair{{0.74, 0.71}, {0.76, 0.73}, {0.70, 0.71}, {0.75, 0.72}, {0.77, 0.74}}
	ci := PairedPercentileBootstrapKernel(pairs, PABKernel{}, 1000, 0.95, 42, 4)
	fmt.Printf("level=%.2f lo<hi: %v\n", ci.Level, ci.Lo < ci.Hi)
	// Output: level=0.95 lo<hi: true
}
