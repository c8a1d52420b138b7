package stats

import (
	"sync"

	"varbench/internal/xrand"
)

// The statistic-kernel layer of the bootstrap engine. A kernel owns the
// whole resampling loop for one statistic. The paired P(A>B) win count of
// the recommended protocol runs fused (PABKernel): it classifies each pair
// once per bootstrap call and then resamples with no resample buffer, no
// closure call per resample and no per-resample allocation — by index
// draws at or below pabIndexMaxN pairs, by two binomial class-count draws
// above. The rank-based unpaired statistic takes the buffered path
// (TwoSampleStatFunc), which materializes each resample in pooled scratch
// and calls the closure.
//
// Determinism contract (every implementation MUST obey it, or worker-count
// invariance and the golden reports break):
//
//   - out[i] depends only on the sample and on the draws it takes from r:
//     no other reads of r, and no dependence on how [0, len(out))
//     resamples are partitioned across shards or workers;
//   - index resampling (every kernel except PABKernel above pabIndexMaxN
//     pairs) takes exactly one r.Intn(len(sample)) per sampled element,
//     drawn in element order (for two-sample kernels: all of a's draws,
//     then all of b's), and out[i] is bit-identical to computing Stat on
//     the materialized resample — same floating-point operations in the
//     same order;
//   - count resampling (PABKernel above pabIndexMaxN pairs) takes exactly
//     two draws per resample, r.Binomial for the wins and then for the ties
//     among the rest, and out[i] applies the index path's final expression
//     to those counts.

// A PairedKernel computes a paired-sample statistic over bootstrap
// resamples of whole pairs (resampling pairs jointly preserves the pairing,
// Appendix C.2).
type PairedKernel interface {
	Stat(pairs []Pair) float64
	ResampleInto(out []float64, pairs []Pair, r *xrand.Source)
}

// ---------------------------------------------------------------------------
// Pooled scratch. The bootstrap engine is allocation-free in steady state:
// resampled-statistic vectors, shard descriptors and kernel scratch all
// cycle through pools. Slices are pooled by pointer so Put does not
// allocate.

var floatPool sync.Pool // *[]float64

// getFloats returns a pooled len-n float slice (contents unspecified).
func getFloats(n int) *[]float64 {
	if p, _ := floatPool.Get().(*[]float64); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	s := make([]float64, n)
	return &s
}

func putFloats(p *[]float64) { floatPool.Put(p) }

var intPool sync.Pool // *[]int64

func getInts(n int) *[]int64 {
	if p, _ := intPool.Get().(*[]int64); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	s := make([]int64, n)
	return &s
}

func putInts(p *[]int64) { intPool.Put(p) }

// ---------------------------------------------------------------------------
// Kernels.

// PABKernel is the fused kernel for the plug-in estimator of P(A>B) over
// paired measures (Equation 9): the fraction of pairs A wins, ties counted
// half. This is the statistic of the recommended protocol's hot loop.
type PABKernel struct{}

// Stat implements PairedKernel.
func (PABKernel) Stat(pairs []Pair) float64 {
	wins := 0.0
	for _, pr := range pairs {
		switch {
		case pr.A > pr.B:
			wins++
		case pr.A == pr.B:
			wins += 0.5
		}
	}
	return wins / float64(len(pairs))
}

// ResampleInto implements PairedKernel: it classifies pairs and runs the
// resampling loop of pabResampler. The bootstrap engine classifies once per
// call instead (PairedPercentileBootstrapKernel).
func (PABKernel) ResampleInto(out []float64, pairs []Pair, r *xrand.Source) {
	c := classifyPAB(pairs, len(pairs) <= pabIndexMaxN)
	pabResampler{}.ResampleInto(out, c, r)
	c.release()
}

// pabIndexMaxN is the largest sample PABKernel resamples by index draws;
// larger samples draw class counts. Index draws cost O(n) per resample and
// count draws O(1), so BenchmarkPairedBootstrapK1000's index-n*/counts-n*
// pairs place the crossover. Median µs per call, index vs counts
// (GOMAXPROCS=1, K=1000, 2-vCPU Xeon VM, go1.24): 129 vs 151 at n=48,
// 186 vs 147 at n=64. At or below it, CIs stay bit-identical to every
// earlier release.
const pabIndexMaxN = 48

// pabClasses is a paired sample reduced to what P(A>B) resampling reads:
// the number of pairs, wins and ties and, on the index path, each pair's
// twice-the-win weight (2 win, 1 tie, 0 loss).
type pabClasses struct {
	n, wins, ties int
	w             *[]int64 // pooled weights; nil on the count path
}

// classifyPAB classifies pairs, filling per-pair weights when byIndex.
func classifyPAB(pairs []Pair, byIndex bool) pabClasses {
	c := pabClasses{n: len(pairs)}
	if byIndex {
		c.w = getInts(len(pairs))
	}
	for i, pr := range pairs {
		var wt int64
		switch {
		case pr.A > pr.B:
			wt = 2
			c.wins++
		case pr.A == pr.B:
			wt = 1
			c.ties++
		}
		if c.w != nil {
			(*c.w)[i] = wt
		}
	}
	return c
}

// release returns the pooled weights.
func (c pabClasses) release() {
	if c.w != nil {
		putInts(c.w)
	}
}

// pabResampler is PABKernel's resampling loop over a classified sample.
//
// The index path draws n pair indices per resample and sums their integer
// weights, sidestepping the floating-point add latency chain. The float win
// count is recovered exactly: every partial sum of 1 and ½ increments is a
// dyadic rational below 2^52, so float64(sum)/2 equals the reference
// accumulation bit-for-bit, and the final division by n uses the identical
// operands.
//
// The count path uses that a resample's value depends only on how many of
// its n drawn pairs are wins (W) and ties (T). (W, T, n−W−T) is
// Multinomial(n; wins/n, ties/n, losses/n), drawn exactly as
// W ~ Binomial(n, wins/n) and T ~ Binomial(n−W, ties/(ties+losses)); the
// value is float64(2W+T)/2/n, the index path's expression on the same sum.
type pabResampler struct{}

func (pabResampler) ResampleInto(out []float64, c pabClasses, r *xrand.Source) {
	nf := float64(c.n)
	if c.w != nil {
		for b := range out {
			out[b] = float64(r.SampleSumInt(*c.w, c.n)) / 2 / nf
		}
		return
	}
	pWin, pTie := float64(c.wins)/nf, 0.0
	if rest := c.n - c.wins; rest > 0 {
		pTie = float64(c.ties) / float64(rest)
	}
	for b := range out {
		w := r.Binomial(c.n, pWin)
		t := r.Binomial(c.n-w, pTie)
		out[b] = float64(2*w+t) / 2 / nf
	}
}

// TwoSampleStatFunc is a two-sample statistic over independent resamples
// of two unpaired samples, run on the buffered path: each resample redraws
// all of a, then all of b, into pooled scratch and calls the function.
type TwoSampleStatFunc func(a, b []float64) float64

// ResampleInto fills out[i] with the statistic of the i-th of len(out)
// resample pairs drawn from r, following the determinism contract above.
func (f TwoSampleStatFunc) ResampleInto(out []float64, a, b []float64, r *xrand.Source) {
	pa, pb := getFloats(len(a)), getFloats(len(b))
	bufA, bufB := *pa, *pb
	for i := range out {
		xrand.SampleInto(r, bufA, a)
		xrand.SampleInto(r, bufB, b)
		out[i] = f(bufA, bufB)
	}
	putFloats(pa)
	putFloats(pb)
}
