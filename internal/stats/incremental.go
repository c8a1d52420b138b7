package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"varbench/internal/xrand"
)

// The incremental bootstrap engine: a resumable analysis of the P(A>B)
// statistic that owns a score stream's whole numeric state and its
// snapshot bytes.
//
// The one-shot percentile bootstrap (bootstrap_sharded.go) draws, for each
// of K resamples, n indices uniform in [0, n) — the index range itself
// depends on the sample size, so a resample computed at n_old cannot be
// extended when new scores arrive: a consumer of an open-ended score stream
// would rebuild all K resamples on every arrival, O(K × n) per update.
// This file implements the *weighted* (Bayesian) percentile bootstrap
// instead (Rubin 1981): resample i assigns every pair j an independent
// Exp(1) weight w_ij and evaluates the weighted win fraction. A new pair
// only *adds* terms to each resample's running sums, so the whole analysis
// is resumable: per-update cost is O(K × n_new) and the state is two
// K-length columns plus the exact running sums behind the point estimate
// and the means, all of which serialize to one snapshot. Its one caller is
// the root package's Stream, which adds prefix verification and store
// persistence. Its cost is one Exp(1) draw per (pair, resample) plus one
// stream reseed per (pair, shard): Extend hashes each pair's label prefix
// once, continues it with each shard's digits, and fills the shard's
// weights in 64-draw blocks with xrand's fused ExpInto kernel. A draw
// costs ≈ 25 ns there against ≈ 36 ns for the per-draw
// -math.Log1p(-Float64()) it replaced, with the same bits
// (BenchmarkExpInto, GOMAXPROCS=1, 2-vCPU Xeon VM). A bounded early-stop
// loop (Experiment.Run) re-runs the one-shot engine at each batch boundary
// instead: over its few boundaries that K × Σn work measured cheaper than
// this engine's per-(pair, resample) draw.
//
// Determinism contract (the incremental analogue of the kernel contract in
// kernel.go):
//
//   - the weight of (pair j, resample i) is drawn from a stream derived
//     from (seed, j, shard-of-i) alone — never from when pair j arrived,
//     how extensions were batched, or the worker count — consuming exactly
//     one Float64 per (pair, resample) in resample order within the shard;
//   - each resample's sums, and the exact sums, accumulate over pairs in
//     pair order;
//
// so Extend(x₁) followed by Extend(x₂) is bit-identical to Extend(x₁‖x₂),
// at any worker count, across any snapshot/restore boundary. This is a
// different resampling scheme from the one-shot engine — confidence
// intervals are statistically equivalent but not numerically identical to
// PairedPercentileBootstrapKernel's — which is exactly why it can be
// incremental: the multinomial scheme has no arrival-order-independent
// form. The point estimate and the means are not resampled: they are
// bit-identical to PABKernel.Stat and Mean over the same sequence.
//
// The incremental analysis is paired-only: the unpaired P(A>B) point
// estimate is the Mann-Whitney U statistic, a rank statistic with no
// extendable per-pair sums.
//
// Shard boundaries reuse BootstrapShards(k), a pure function of k, so the
// parallel extension is worker-count invariant for the same reason the
// one-shot sharded engine is.

// The accumulator's identity. accumKind is the snapshot's kind byte (the
// weighted fraction of pairs A wins, ties counted half); its value 4 is
// pinned by persisted snapshots. accumID versions the accumulator algebra
// for fingerprints: bumping it deliberately invalidates persisted state.
const (
	accumKind = 4
	accumID   = "wb-pab/v1"
)

// An Accum is a resumable bootstrap analysis of P(A>B): K weighted
// resamples maintained as running sums that new pairs extend in place, plus
// the exact sums behind the point estimate and the means. The zero value is
// unusable; construct with NewAccum. An Accum is not safe for concurrent
// mutation; Extend parallelizes internally.
type Accum struct {
	k    int
	seed uint64
	n    int // pairs consumed
	// Per-resample running sums: the total weight, and the weighted
	// twice-the-win count (weights 2, 1, 0 for win, tie, loss).
	weight, wwins []float64
	// Exact running sums: the win count as an integer twice-the-win count
	// (exact dyadic recovery of the plug-in estimate) and the score sums in
	// arrival order — the same order and operations PABKernel.Stat and Mean
	// perform.
	winsX2     int64
	sumA, sumB float64
}

// NewAccum returns an empty accumulator with k resamples, drawing all
// weights from streams derived from seed.
func NewAccum(k int, seed uint64) (*Accum, error) {
	if k < 1 {
		return nil, fmt.Errorf("stats: accumulator needs ≥ 1 resample, got %d", k)
	}
	return &Accum{k: k, seed: seed, weight: make([]float64, k), wwins: make([]float64, k)}, nil
}

// K returns the number of resamples.
func (ac *Accum) K() int { return ac.k }

// Seed returns the root seed of the weight streams.
func (ac *Accum) Seed() uint64 { return ac.seed }

// N returns how many pairs the accumulator has consumed.
func (ac *Accum) N() int { return ac.n }

// ID returns the versioned accumulator identity; callers that persist
// snapshots fingerprint them with it, K() and Seed() to reject stale state
// before restoring.
func (ac *Accum) ID() string { return accumID }

// incLabelPrefix roots the per-(pair, shard) weight-stream labels. The
// label bytes must stay exactly "incremental/x/<pair>/shard/<index>": they
// pin the weight streams independently of arrival order.
const incLabelPrefix = "incremental/x/"

// expBlock is how many weights one ExpInto call draws into a stack buffer.
// A shard longer than that (k > 64·expBlock) takes several blocks.
const expBlock = 64

// A pairStage is Extend's per-pair scratch: the pair's twice-the-win
// weight and the hash of its weight-stream label up to the shard digits.
// One pooled slice carries both, so Extend takes one pool round trip.
type pairStage struct {
	d float64
	h xrand.LabelHash
}

var stagePool sync.Pool // *[]pairStage

func getStages(n int) *[]pairStage {
	if p, _ := stagePool.Get().(*[]pairStage); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	s := make([]pairStage, n)
	return &s
}

// sharded runs work(shard, lo, hi) over the BootstrapShards(k) resample
// ranges, claimed by up to `workers` goroutines. Shard boundaries are a pure
// function of k and shards touch disjoint column ranges, so results are
// bit-identical at any worker count.
func (ac *Accum) sharded(workers int, work func(s, lo, hi int)) {
	nsh := BootstrapShards(ac.k)
	if workers > nsh {
		workers = nsh
	}
	if workers <= 1 {
		for s := 0; s < nsh; s++ {
			work(s, s*ac.k/nsh, (s+1)*ac.k/nsh)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= nsh {
					return
				}
				work(s, s*ac.k/nsh, (s+1)*ac.k/nsh)
			}
		}()
	}
	wg.Wait()
}

// Extend appends the paired measurements (a[i], b[i]); a and b must have
// equal length. The result is bit-identical whether the pairs arrive in one
// call or many, at any worker count.
func (ac *Accum) Extend(a, b []float64, workers int) {
	// Each pair is classified once and its weight-stream label hashed once
	// up to the shard digits: its twice-the-win weight feeds the exact
	// count here and, with the label hash, every resample through pooled
	// scratch shared read-only by all shards.
	sp := getStages(len(a))
	st := *sp
	var lblBuf [len(incLabelPrefix) + 32]byte
	lbl := append(lblBuf[:0], incLabelPrefix...)
	for j := range a {
		switch {
		case a[j] > b[j]:
			st[j].d = 2
			ac.winsX2 += 2
		case a[j] == b[j]:
			st[j].d = 1
			ac.winsX2++
		default:
			st[j].d = 0
		}
		ac.sumA += a[j]
		ac.sumB += b[j]
		lbl = append(strconv.AppendInt(lbl[:len(incLabelPrefix)], int64(ac.n+j), 10), "/shard/"...)
		st[j].h = xrand.NewLabelHash(lbl)
	}
	ac.sharded(workers, func(s, lo, hi int) {
		// For each (pair, shard), seed the label-derived stream and draw
		// one weight per resample in resample order, a block at a time.
		var root, r xrand.Source
		root.Seed(ac.seed)
		var digits [20]byte
		shard := strconv.AppendInt(digits[:0], int64(s), 10)
		var buf [expBlock]float64
		for _, p := range st {
			r.Seed(root.SplitSeedHash(p.h.Append(shard)))
			for i0 := lo; i0 < hi; i0 += expBlock {
				ws := buf[:min(hi-i0, expBlock)]
				r.ExpInto(ws)
				wt, ww := ac.weight[i0:i0+len(ws)], ac.wwins[i0:i0+len(ws)]
				for t, w := range ws {
					wt[t] += w
					ww[t] += w * p.d
				}
			}
		}
	})
	stagePool.Put(sp)
	ac.n += len(a)
}

// Point returns the plug-in estimate of P(A>B) over the consumed pairs —
// bit-identical to PABKernel.Stat on the same sequence (NaN before any pair
// exists).
func (ac *Accum) Point() float64 {
	if ac.n == 0 {
		return math.NaN()
	}
	return float64(ac.winsX2) / 2 / float64(ac.n)
}

// Means returns the running mean scores of the two sides — bit-identical to
// Mean over each side's sequence (NaN before any pair exists).
func (ac *Accum) Means() (meanA, meanB float64) {
	if ac.n == 0 {
		return math.NaN(), math.NaN()
	}
	return ac.sumA / float64(ac.n), ac.sumB / float64(ac.n)
}

// CI reads the two-sided percentile interval off the K weighted resample
// statistics. An empty accumulator, or a level outside (0, 1), yields the
// documented NaN CI. The total weight of a resample is a sum of Exp(1)
// draws and is zero only when every underlying uniform was exactly 0
// (probability 2⁻⁵³ per draw); such a resample evaluates to NaN and sorts
// first, exactly as NaN resample statistics do in the one-shot engine.
func (ac *Accum) CI(level float64) CI {
	if ac.n == 0 || math.IsNaN(level) || level <= 0 || level >= 1 {
		return nanCI(level)
	}
	vp := getFloats(ac.k)
	vals := *vp
	for i := range vals {
		vals[i] = ac.wwins[i] / 2 / ac.weight[i]
	}
	ci := percentileCI(vals, level)
	putFloats(vp)
	return ci
}

// ---------------------------------------------------------------------------
// Snapshots. MarshalBinary writes, and UnmarshalBinary reads, one blob:
//
//	offset  size  field
//	0       6     magic "VBANS1"
//	6       8     n       (uint64 LE)
//	14      8     winsX2  (int64 LE)
//	22      8     sumA    (float64 bits LE)
//	30      8     sumB    (float64 bits LE)
//	38      6     magic "VBACC1"
//	44      1     kind    (accumKind)
//	45      8     k       (uint64 LE)
//	53      8     seed    (uint64 LE)
//	61      8     n again (uint64 LE)
//	69      8     reserved, always 0
//	77      8·k   weight column, float64 bits LE
//	77+8k   8·k   wwins column, float64 bits LE
//
// Earlier releases wrote this layout as two nested blobs from two packages
// (hence the two magics and the repeated n); it is kept byte for byte so
// persisted stores keep resuming. Each magic's trailing digit is a format
// version. Float64 bit patterns round-trip exactly (including NaN/Inf sums
// produced by non-finite scores), so restore → extend is bit-identical to
// never having snapshotted.

const (
	sumsMagic  = "VBANS1"
	accumMagic = "VBACC1"
	// accumHeaderSize is the byte length of everything before the columns.
	accumHeaderSize = len(sumsMagic) + 4*8 + len(accumMagic) + 1 + 4*8
)

// MarshalBinary serializes the accumulator state; see the layout above.
func (ac *Accum) MarshalBinary() ([]byte, error) {
	le := binary.LittleEndian
	buf := make([]byte, 0, accumHeaderSize+8*2*ac.k)
	buf = append(buf, sumsMagic...)
	buf = le.AppendUint64(buf, uint64(ac.n))
	buf = le.AppendUint64(buf, uint64(ac.winsX2))
	buf = le.AppendUint64(buf, math.Float64bits(ac.sumA))
	buf = le.AppendUint64(buf, math.Float64bits(ac.sumB))
	buf = append(buf, accumMagic...)
	buf = append(buf, accumKind)
	for _, v := range [...]uint64{uint64(ac.k), ac.seed, uint64(ac.n), 0} {
		buf = le.AppendUint64(buf, v)
	}
	for _, col := range [...][]float64{ac.weight, ac.wwins} {
		for _, v := range col {
			buf = le.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf, nil
}

// UnmarshalBinary restores a MarshalBinary snapshot into ac, which must
// have the snapshot's K and seed (as NewAccum built it). A truncated,
// oversized, version-mismatched, foreign-kind, incoherent or
// foreign-identity snapshot is rejected and ac is left unchanged — never
// partially applied — so callers fall back to recomputing from scratch.
func (ac *Accum) UnmarshalBinary(data []byte) error {
	const kindAt = accumHeaderSize - 4*8 - 1
	if len(data) < accumHeaderSize || string(data[:len(sumsMagic)]) != sumsMagic ||
		string(data[kindAt-len(accumMagic):kindAt]) != accumMagic {
		return fmt.Errorf("stats: not an accumulator snapshot (bad magic or truncated header)")
	}
	if kind := data[kindAt]; kind != accumKind {
		return fmt.Errorf("stats: snapshot holds accumulator kind %d, want %d (%s)", kind, accumKind, accumID)
	}
	off := len(sumsMagic)
	word := func() uint64 {
		v := binary.LittleEndian.Uint64(data[off:])
		off += 8
		return v
	}
	n64, winsX2, sumA, sumB := word(), int64(word()), word(), word()
	off = kindAt + 1
	k64, seed, accN, reserved := word(), word(), word(), word()
	if k64 != uint64(ac.k) || seed != ac.seed {
		return fmt.Errorf("stats: snapshot of k=%d seed=%d, want k=%d seed=%d", k64, seed, ac.k, ac.seed)
	}
	if want := accumHeaderSize + 8*2*ac.k; len(data) != want {
		return fmt.Errorf("stats: snapshot length %d, want %d for %s k=%d", len(data), want, accumID, ac.k)
	}
	const maxN = 1 << 62
	if n64 > maxN || accN != n64 || reserved != 0 {
		return fmt.Errorf("stats: snapshot pair counts %d/%d incoherent", n64, accN)
	}
	if winsX2 < 0 || winsX2 > 2*int64(n64) {
		return fmt.Errorf("stats: snapshot win weight %d out of range for %d pairs", winsX2, n64)
	}
	ac.n, ac.winsX2 = int(n64), winsX2
	ac.sumA, ac.sumB = math.Float64frombits(sumA), math.Float64frombits(sumB)
	for _, col := range [...][]float64{ac.weight, ac.wwins} {
		for i := range col {
			col[i] = math.Float64frombits(word())
		}
	}
	return nil
}
