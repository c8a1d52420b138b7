package stats

import (
	"math"
	"runtime"
	"testing"

	"varbench/internal/xrand"
)

func shardedSample(n int, seed uint64) []float64 {
	r := xrand.New(seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return x
}

func TestBootstrapShardsPureInK(t *testing.T) {
	for _, k := range []int{1, 2, 31, 64, 65, 1000, 4096} {
		s := BootstrapShards(k)
		if s < 1 || s > k || s > maxBootstrapShards {
			t.Errorf("BootstrapShards(%d) = %d out of range", k, s)
		}
		if s != BootstrapShards(k) {
			t.Errorf("BootstrapShards(%d) not deterministic", k)
		}
	}
}

func TestPercentileBootstrapShardedWorkerInvariance(t *testing.T) {
	pairs := randomPairs(xrand.New(3), 29)
	workerCounts := []int{1, 2, 3, 4, 7, 8, runtime.GOMAXPROCS(0), 100}
	ref := PairedPercentileBootstrapKernel(pairs, PABKernel{}, 1000, 0.95, 42, 1)
	for _, w := range workerCounts {
		ci := PairedPercentileBootstrapKernel(pairs, PABKernel{}, 1000, 0.95, 42, w)
		if ci != ref {
			t.Errorf("workers=%d: CI %+v != serial reference %+v", w, ci, ref)
		}
	}
	// Different seeds give different resamples. P(A>B) resamples lie on a
	// 1/(2n) grid, so one other seed may land on the same interval; ten
	// cannot all do so.
	seedMatters := false
	for seed := uint64(43); seed < 53; seed++ {
		if PairedPercentileBootstrapKernel(pairs, PABKernel{}, 1000, 0.95, seed, 4) != ref {
			seedMatters = true
		}
	}
	if !seedMatters {
		t.Error("seed has no effect on the sharded bootstrap")
	}
	if ref.Lo > ref.Hi || ref.Level != 0.95 {
		t.Errorf("malformed CI %+v", ref)
	}
}

func TestPairedPercentileBootstrapShardedWorkerInvariance(t *testing.T) {
	r := xrand.New(7)
	pairs := make([]Pair, 29)
	for i := range pairs {
		base := r.NormFloat64()
		pairs[i] = Pair{A: base + 1, B: base + 0.3*r.NormFloat64()}
	}
	ref := PairedPercentileBootstrapKernel(pairs, PABKernel{}, 1000, 0.95, 9, 1)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		if ci := PairedPercentileBootstrapKernel(pairs, PABKernel{}, 1000, 0.95, 9, w); ci != ref {
			t.Errorf("workers=%d: CI %+v != serial reference %+v", w, ci, ref)
		}
	}
	if ref.Lo <= 0.5 {
		t.Errorf("CI.Lo = %v, want > 0.5 for dominated pairs", ref.Lo)
	}
	if ref.Hi > 1 || ref.Lo < 0 {
		t.Errorf("CI out of [0,1]: %+v", ref)
	}
}

func TestTwoSampleBootstrapShardedWorkerInvariance(t *testing.T) {
	a := shardedSample(25, 1)
	for i := range a {
		a[i] += 1.5
	}
	b := shardedSample(20, 2)
	meanDiff := TwoSampleStatFunc(func(x, y []float64) float64 { return Mean(x) - Mean(y) })
	ref := TwoSampleBootstrapKernel(a, b, meanDiff, 800, 0.9, 5, 1)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		if ci := TwoSampleBootstrapKernel(a, b, meanDiff, 800, 0.9, 5, w); ci != ref {
			t.Errorf("workers=%d: CI %+v != serial reference %+v", w, ci, ref)
		}
	}
	if ref.Lo <= 0 {
		t.Errorf("mean-difference CI should sit above 0: %+v", ref)
	}
}

func TestPercentileBootstrapShardedCoversMean(t *testing.T) {
	// Statistical sanity: the sharded engine is still a valid percentile
	// bootstrap — a 95% CI for the mean difference covers the true mean
	// ≈95% of the time.
	r := xrand.New(21)
	const reps = 150
	hits := 0
	for rep := 0; rep < reps; rep++ {
		pairs := meanDiffPairs(r, 40)
		ci := PairedPercentileBootstrapKernel(pairs, meanDiffKernel{}, 500, 0.95, uint64(rep), 4)
		if ci.Contains(10) {
			hits++
		}
	}
	rate := float64(hits) / reps
	if rate < 0.88 || rate > 0.995 {
		t.Errorf("sharded bootstrap CI coverage = %v, want ≈0.95", rate)
	}
}

// TestPercentileBootstrapCoversPAB: the seeded paired engine is a valid
// percentile bootstrap of P(A>B) — a 95% CI covers the true probability
// of outperforming about 95% of the time, at Noether's n=29 and at n=100,
// for a null and a meaningful effect. Differences D = A−B are N(μ, 1), so
// the true P(A>B) = Φ(μ).
func TestPercentileBootstrapCoversPAB(t *testing.T) {
	const reps = 400
	for _, truth := range []float64{0.5, 0.75} {
		mu := NormQuantile(truth)
		for _, n := range []int{29, 100} {
			r := xrand.New(uint64(1000*truth) + uint64(n))
			pairs := make([]Pair, n)
			hits := 0
			for rep := 0; rep < reps; rep++ {
				for i := range pairs {
					base := r.NormFloat64()
					pairs[i] = Pair{A: base + mu + r.NormFloat64(), B: base}
				}
				ci := PairedPercentileBootstrapKernel(pairs, PABKernel{}, 1000, 0.95, r.Uint64(), 1)
				if ci.Contains(truth) {
					hits++
				}
			}
			rate := float64(hits) / reps
			t.Logf("P(A>B)=%v n=%d: coverage %v", truth, n, rate)
			if rate < 0.88 || rate > 0.995 {
				t.Errorf("P(A>B)=%v n=%d: 95%% CI coverage = %v, want ≈0.95", truth, n, rate)
			}
		}
	}
}

func TestGammaBonferroniSaturatesBelowOne(t *testing.T) {
	// Regression: the adjustment used to clamp at exactly 1.0 for large m,
	// which made "significant and meaningful" (CI.Hi > γ) and the
	// CI-cleared early stop (CI.Lo > γ) unreachable — a bootstrap CI never
	// exceeds 1.
	for _, m := range []int{100, 10000, 1 << 30} {
		g := GammaBonferroni(0.75, 0.05, m)
		if g >= 1 {
			t.Errorf("m=%d: adjusted γ = %v, must stay strictly below 1", m, g)
		}
		if g != GammaMax {
			t.Errorf("m=%d: adjusted γ = %v, want saturation at GammaMax", m, g)
		}
	}
	// Saturation is detectable and the sample-size relation stays finite.
	if n := NoetherSampleSize(GammaMax, 0.05, 0.05); n <= 0 || n >= math.MaxInt32 {
		t.Errorf("NoetherSampleSize(GammaMax) = %d degenerate", n)
	}
}
