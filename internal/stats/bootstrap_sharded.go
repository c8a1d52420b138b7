package stats

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"varbench/internal/xrand"
)

// The sharded bootstrap: the one-shot percentile-bootstrap engine. The K
// resamples are partitioned into shards whose boundaries and RNG streams
// depend only on (seed, K) — never on the worker count or on scheduling —
// so the resampled statistics, and therefore the confidence interval, are
// bit-identical at any parallelism. There is one entry point per sample
// shape: PairedPercentileBootstrapKernel for paired measures and
// TwoSampleBootstrapKernel for unpaired ones. Statistics dispatch through
// the kernel layer (kernel.go). All scratch (the resampled-statistic
// vector, the shard descriptors, kernel buffers) cycles through pools, so
// the engine allocates nothing in steady state.

// maxBootstrapShards bounds the shard count. 64 shards keep the work queue
// balanced for any plausible worker count while each shard still amortizes
// its RNG setup over many resamples at the recommended K=1000.
const maxBootstrapShards = 64

// BootstrapShards returns the number of shards the sharded bootstrap splits
// k resamples into. It is a pure function of k, which is what pins shard
// boundaries independently of the worker count.
func BootstrapShards(k int) int {
	if k < maxBootstrapShards {
		return k
	}
	return maxBootstrapShards
}

// bootstrapShard is one unit of sharded resampling work: fill vals[Lo:Hi)
// drawing only from R.
type bootstrapShard struct {
	Lo, Hi int
	R      xrand.Source
}

// bootstrapShardPrefix labels the per-shard child streams. The label bytes
// must stay exactly "bootstrap/shard/<index>": they pin the historical
// stream derivation.
const bootstrapShardPrefix = "bootstrap/shard/"

var shardPool sync.Pool // *[]bootstrapShard

// getShards returns a pooled slice of n shards covering [0, k) with their
// (seed, index)-derived RNG streams seeded in place.
func getShards(k int, seed uint64) *[]bootstrapShard {
	n := BootstrapShards(k)
	p, _ := shardPool.Get().(*[]bootstrapShard)
	if p == nil || cap(*p) < n {
		s := make([]bootstrapShard, n)
		p = &s
	}
	*p = (*p)[:n]
	var root xrand.Source
	root.Seed(seed)
	var lbl [len(bootstrapShardPrefix) + 20]byte
	shards := *p
	for s := range shards {
		b := append(lbl[:0], bootstrapShardPrefix...)
		b = strconv.AppendInt(b, int64(s), 10)
		shards[s].Lo = s * k / n
		shards[s].Hi = (s + 1) * k / n
		shards[s].R.Seed(root.SplitSeedBytes(b))
	}
	return p
}

// resampler is the engine-facing half of the kernel interfaces, generic
// over the sample shape (paired, two-sample).
type resampler[S any] interface {
	ResampleInto(out []float64, sample S, r *xrand.Source)
}

// twoSamples bundles two unpaired samples into one engine sample value.
type twoSamples struct{ a, b []float64 }

type twoSampleAdapter struct{ f TwoSampleStatFunc }

func (t twoSampleAdapter) ResampleInto(out []float64, s twoSamples, r *xrand.Source) {
	t.f.ResampleInto(out, s.a, s.b, r)
}

// shardedVals fills vals with len(vals) resampled statistics of kern over
// sample, sharded across `workers` goroutines. The shard streams depend
// only on (seed, len(vals)) and shards write disjoint ranges, so the
// contents of vals are bit-identical at any worker count. Generic over the
// kernel type so that concrete adapter structs are not boxed into an
// interface (which would allocate on every call).
func shardedVals[S any, K resampler[S]](vals []float64, sample S, kern K, seed uint64, workers int) {
	sp := getShards(len(vals), seed)
	shards := *sp
	if workers > len(shards) {
		workers = len(shards)
	}
	if workers <= 1 {
		for i := range shards {
			sh := &shards[i]
			kern.ResampleInto(vals[sh.Lo:sh.Hi], sample, &sh.R)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(shards) {
						return
					}
					sh := &shards[i]
					kern.ResampleInto(vals[sh.Lo:sh.Hi], sample, &sh.R)
				}
			}()
		}
		wg.Wait()
	}
	shardPool.Put(sp)
}

// badBootstrap reports whether a bootstrap request is degenerate: nothing
// to resample, no resamples, or a confidence level outside (0, 1). The
// entry points answer such requests with a NaN CI (see nanCI) instead of
// panicking on empty or unsorted-garbage quantile input.
func badBootstrap(sampleLen, k int, level float64) bool {
	return sampleLen == 0 || k <= 0 || math.IsNaN(level) || level <= 0 || level >= 1
}

// nanCI is the documented degenerate-input answer: both endpoints NaN, the
// requested level echoed back. It consumes no randomness.
func nanCI(level float64) CI {
	return CI{Lo: math.NaN(), Hi: math.NaN(), Level: level}
}

// percentileCI reads the two-sided percentile interval off the resampled
// statistics via selection (O(K) expected, see select.go) instead of a full
// sort, reordering vals in place.
func percentileCI(vals []float64, level float64) CI {
	alpha := 1 - level
	lo, hi := quantiles2Select(vals, alpha/2, 1-alpha/2)
	return CI{Lo: lo, Hi: hi, Level: level}
}

// bootstrapCI is the shared sharded engine behind the kernel entry points.
func bootstrapCI[S any, K resampler[S]](sample S, sampleLen int, kern K, k int, level float64, seed uint64, workers int) CI {
	if badBootstrap(sampleLen, k, level) {
		return nanCI(level)
	}
	vp := getFloats(k)
	vals := *vp
	shardedVals(vals, sample, kern, seed, workers)
	ci := percentileCI(vals, level)
	putFloats(vp)
	return ci
}

// PairedPercentileBootstrapKernel computes the sharded percentile-bootstrap
// CI of a paired kernel statistic: K resamples of whole pairs with
// replacement (resampling pairs jointly preserves the pairing), interval
// given by the α/2 and 1-α/2 empirical quantiles of the resampled
// statistics. This is Appendix C.5's procedure for P(A>B). Results depend
// only on (pairs, kern, k, level, seed): any worker count, including 1,
// produces bit-identical intervals. Degenerate input (no pairs, k ≤ 0,
// level outside (0,1)) yields a NaN CI. PABKernel classifies the pairs
// once per call, and every shard resamples the classes.
func PairedPercentileBootstrapKernel(pairs []Pair, kern PairedKernel, k int, level float64, seed uint64, workers int) CI {
	if _, ok := kern.(PABKernel); ok {
		return pabBootstrap(pairs, len(pairs) <= pabIndexMaxN, k, level, seed, workers)
	}
	return bootstrapCI[[]Pair, PairedKernel](pairs, len(pairs), kern, k, level, seed, workers)
}

// pabBootstrap is the engine's PABKernel path, on the index or count path
// as byIndex says.
func pabBootstrap(pairs []Pair, byIndex bool, k int, level float64, seed uint64, workers int) CI {
	c := classifyPAB(pairs, byIndex)
	ci := bootstrapCI[pabClasses, pabResampler](c, len(pairs), pabResampler{}, k, level, seed, workers)
	c.release()
	return ci
}

// TwoSampleBootstrapKernel is PairedPercentileBootstrapKernel for
// two-sample statistics: each resample redraws both a and b independently
// with replacement. This is the engine behind the unpaired (Mann-Whitney)
// variant of the recommended test.
func TwoSampleBootstrapKernel(a, b []float64, stat TwoSampleStatFunc, k int, level float64, seed uint64, workers int) CI {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	return bootstrapCI[twoSamples, twoSampleAdapter](twoSamples{a, b}, n, twoSampleAdapter{stat}, k, level, seed, workers)
}
