package stats

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"varbench/internal/xrand"
)

// extendPairs feeds pairs to ac through its two-slice Extend.
func extendPairs(ac *Accum, pairs []Pair, workers int) {
	a, b := unzipPairs(pairs)
	ac.Extend(a, b, workers)
}

// unzipPairs splits pairs into their A and B score slices.
func unzipPairs(pairs []Pair) (a, b []float64) {
	a = make([]float64, len(pairs))
	b = make([]float64, len(pairs))
	for i, p := range pairs {
		a[i], b[i] = p.A, p.B
	}
	return a, b
}

// extendAll feeds pairs to ac in the chunking the split list describes;
// splits are cumulative pair counts and must end at len(pairs).
func extendAll(ac *Accum, pairs []Pair, splits []int, workers int) {
	lo := 0
	for _, hi := range splits {
		extendPairs(ac, pairs[lo:hi], workers)
		lo = hi
	}
}

// accumBits is the bit-level identity witness: the snapshot serializes every
// accumulator column's float bits, so byte-equal snapshots mean bit-equal
// state.
func accumBits(t *testing.T, ac *Accum) []byte {
	t.Helper()
	b, err := ac.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	return b
}

// TestAccumExtendBitIdentical is the tentpole property test: extending by
// n_new pairs is bit-identical to the from-scratch run on n_old+n_new —
// across the worker grid and across several split points, including
// pair-at-a-time feeding.
func TestAccumExtendBitIdentical(t *testing.T) {
	r := xrand.New(99)
	for trial := 0; trial < 8; trial++ {
		n := 4 + r.Intn(30)
		k := 40 + r.Intn(200)
		seed := r.Uint64()
		pairs := randomPairs(r, n)
		splitPlans := [][]int{
			{n},                      // one shot (the reference itself)
			{1, n},                   // tiny first batch
			{n / 2, n},               // even split
			{n - 1, n},               // extension by a single element
			make([]int, 0, n),        // element at a time
			{n / 3, 2 * n / 3, n},    // three batches
			{n / 4, n / 2, n - 1, n}, // uneven batches
		}
		one := splitPlans[4]
		for i := 1; i <= n; i++ {
			one = append(one, i)
		}
		splitPlans[4] = one

		ref, err := NewAccum(k, seed)
		if err != nil {
			t.Fatal(err)
		}
		extendAll(ref, pairs, []int{n}, 1)
		refBits := accumBits(t, ref)
		refCI := ref.CI(0.95)
		for _, splits := range splitPlans {
			for _, w := range kernelWorkerGrid() {
				got, err := NewAccum(k, seed)
				if err != nil {
					t.Fatal(err)
				}
				extendAll(got, pairs, splits, w)
				if !bytes.Equal(accumBits(t, got), refBits) {
					t.Fatalf("k=%d n=%d splits=%v workers=%d: state differs from from-scratch",
						k, n, splits, w)
				}
				if !ciEqual(got.CI(0.95), refCI) {
					t.Fatalf("CI differs: %+v vs %+v", got.CI(0.95), refCI)
				}
			}
		}
	}
}

// referenceExtend is the engine's extension loop as it stood before the
// fused Exp(1) kernel, kept verbatim as the oracle for the weights: one
// label "incremental/x/<pair>/shard/<index>" formatted and hashed per
// (pair, shard), then one -math.Log1p(-Float64()) per resample in resample
// order. It runs serially.
func referenceExtend(ac *Accum, a, b []float64) {
	d := make([]float64, len(a))
	for j := range a {
		switch {
		case a[j] > b[j]:
			d[j] = 2
			ac.winsX2 += 2
		case a[j] == b[j]:
			d[j] = 1
			ac.winsX2++
		default:
			d[j] = 0
		}
		ac.sumA += a[j]
		ac.sumB += b[j]
	}
	nsh := BootstrapShards(ac.k)
	for s := 0; s < nsh; s++ {
		lo, hi := s*ac.k/nsh, (s+1)*ac.k/nsh
		var root, r xrand.Source
		root.Seed(ac.seed)
		var lbl [64]byte
		for j := range d {
			label := append(lbl[:0], "incremental/x/"...)
			label = strconv.AppendInt(label, int64(ac.n+j), 10)
			label = append(label, "/shard/"...)
			label = strconv.AppendInt(label, int64(s), 10)
			r.Seed(root.SplitSeedBytes(label))
			for i := lo; i < hi; i++ {
				w := -math.Log1p(-r.Float64())
				ac.weight[i] += w
				ac.wwins[i] += w * d[j]
			}
		}
	}
	ac.n += len(a)
}

// TestAccumMatchesReference pins the weights bit for bit: Extend's snapshot
// bytes must equal referenceExtend's. K covers one resample, K below, at and
// just above the 64-shard cap, the default 1000, and 4161, whose 65- and
// 66-resample shards overrun one 64-weight block. The split plans put batch
// boundaries at, and batches across, the pair indices where the label's
// decimal digits lengthen (9→10, 99→100, 999→1000).
func TestAccumMatchesReference(t *testing.T) {
	const n = 1003
	a, b := unzipPairs(randomPairs(xrand.New(1009), n))
	plans := [][]int{
		{n},
		{9, 10, 99, 100, 999, 1000, n},
		{5, 15, 95, 105, 995, 1001, n},
	}
	for _, tc := range []struct{ k, n int }{
		{1, n}, {7, n}, {63, n}, {64, n}, {65, n}, {1000, n}, {4161, 120},
	} {
		ref, err := NewAccum(tc.k, 4242)
		if err != nil {
			t.Fatal(err)
		}
		referenceExtend(ref, a[:tc.n], b[:tc.n])
		want := accumBits(t, ref)
		for _, plan := range plans {
			for _, w := range kernelWorkerGrid() {
				got, err := NewAccum(tc.k, 4242)
				if err != nil {
					t.Fatal(err)
				}
				lo := 0
				for _, hi := range plan {
					hi = min(hi, tc.n)
					got.Extend(a[lo:hi], b[lo:hi], w)
					lo = hi
				}
				if !bytes.Equal(accumBits(t, got), want) {
					t.Fatalf("k=%d n=%d splits=%v workers=%d: Extend state differs from the per-draw reference",
						tc.k, tc.n, plan, w)
				}
			}
		}
	}
}

// TestAccumSnapshotRoundTrip pins the resumability contract end to end:
// serialize mid-stream, restore in a fresh process-equivalent, extend with
// the remaining pairs — bit-identical to never having snapshotted.
func TestAccumSnapshotRoundTrip(t *testing.T) {
	r := xrand.New(41)
	for trial := 0; trial < 6; trial++ {
		n := 6 + r.Intn(24)
		k := 40 + r.Intn(160)
		seed := r.Uint64()
		pairs := randomPairs(r, n)
		cut := 1 + r.Intn(n-1)
		ref, err := NewAccum(k, seed)
		if err != nil {
			t.Fatal(err)
		}
		half, err := NewAccum(k, seed)
		if err != nil {
			t.Fatal(err)
		}
		extendAll(ref, pairs, []int{n}, 1)
		extendAll(half, pairs, []int{cut}, 1)

		restored, err := NewAccum(k, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.UnmarshalBinary(accumBits(t, half)); err != nil {
			t.Fatalf("UnmarshalBinary: %v", err)
		}
		if restored.K() != k || restored.Seed() != seed || restored.N() != cut {
			t.Fatalf("restored identity mismatch: k=%d seed=%d n=%d",
				restored.K(), restored.Seed(), restored.N())
		}
		extendPairs(restored, pairs[cut:], 1)
		if !bytes.Equal(accumBits(t, restored), accumBits(t, ref)) {
			t.Fatal("restore→extend differs from uninterrupted run")
		}
	}
}

// TestAccumCISanity checks the weighted-bootstrap CI is statistically
// sensible: the PAB interval of clearly separated pairs sits above 0.5 and
// within [0, 1].
func TestAccumCISanity(t *testing.T) {
	r := xrand.New(5)
	n := 40
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{A: 1 + 0.1*r.NormFloat64(), B: 0.1 * r.NormFloat64()}
	}
	pab, _ := NewAccum(1000, 11)
	extendPairs(pab, pairs, 1)
	ci := pab.CI(0.95)
	if !(ci.Lo > 0.5) || !(ci.Hi <= 1) || ci.Lo > ci.Hi {
		t.Fatalf("PAB CI of clearly separated pairs: %+v", ci)
	}
}

// TestAccumCIDegenerate: empty accumulators and bad levels yield the
// documented NaN CI instead of panicking or inventing numbers.
func TestAccumCIDegenerate(t *testing.T) {
	ac, _ := NewAccum(100, 1)
	if ci := ac.CI(0.95); !math.IsNaN(ci.Lo) || !math.IsNaN(ci.Hi) {
		t.Fatalf("empty accumulator CI = %+v, want NaN", ci)
	}
	ac.Extend([]float64{1, 3, 2}, []float64{2, 1, 2}, 1)
	for _, level := range []float64{0, 1, -0.1, 1.1, math.NaN()} {
		if ci := ac.CI(level); !math.IsNaN(ci.Lo) || !math.IsNaN(ci.Hi) {
			t.Fatalf("CI(%v) = %+v, want NaN", level, ci)
		}
	}
}

// TestAccumShapeErrors: an accumulator without resamples is an error, not
// a silently empty analysis.
func TestAccumShapeErrors(t *testing.T) {
	for _, k := range []int{0, -1} {
		if _, err := NewAccum(k, 1); err == nil {
			t.Fatalf("NewAccum accepted k=%d", k)
		}
	}
}

// TestRestoreAccumRejectsGarbage: truncated, oversized, corrupted or
// foreign-identity snapshots are rejected whole — never partially applied.
func TestRestoreAccumRejectsGarbage(t *testing.T) {
	ac, _ := NewAccum(64, 9)
	extendPairs(ac, randomPairs(xrand.New(3), 10), 1)
	good, err := ac.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		nil,
		[]byte("short"),
		good[:len(good)-1],           // truncated column data
		append(bytes.Clone(good), 0), // trailing garbage
	}
	for _, at := range []int{0, len(sumsMagic) + 4*8} { // either magic
		wrongMagic := bytes.Clone(good)
		wrongMagic[at] = 'X'
		bad = append(bad, wrongMagic)
	}
	// Every kind byte but accumKind is foreign, including the retired
	// one-sample, mean-difference and two-sample kinds 1, 2, 3 and 5.
	kindAt := len(sumsMagic) + 4*8 + len(accumMagic)
	for kind := 0; kind < 256; kind++ {
		if kind != accumKind {
			wrongKind := bytes.Clone(good)
			wrongKind[kindAt] = byte(kind)
			bad = append(bad, wrongKind)
		}
	}
	// The reserved word must be zero.
	nonzeroNB := bytes.Clone(good)
	nonzeroNB[accumHeaderSize-8] = 1
	bad = append(bad, nonzeroNB)
	for i, b := range bad {
		re, _ := NewAccum(64, 9)
		if err := re.UnmarshalBinary(b); err == nil {
			t.Fatalf("UnmarshalBinary accepted corrupt blob %d", i)
		}
		if re.N() != 0 || !math.IsNaN(re.Point()) {
			t.Fatalf("rejected blob %d was partially applied", i)
		}
	}
	for _, foreign := range []struct {
		k    int
		seed uint64
	}{{65, 9}, {64, 10}} {
		re, _ := NewAccum(foreign.k, foreign.seed)
		if err := re.UnmarshalBinary(good); err == nil {
			t.Fatalf("k=%d seed=%d accepted a k=64 seed=9 snapshot", foreign.k, foreign.seed)
		}
	}
	re, _ := NewAccum(64, 9)
	if err := re.UnmarshalBinary(good); err != nil || re.N() != 10 {
		t.Fatalf("UnmarshalBinary rejected its own output: %v", err)
	}
}

// TestAccumExtendAllocsFlat pins the steady-state allocation profile of the
// serial extend path: a handful of closure headers at most, independent of
// how many elements the accumulator already holds — the in-place columns
// never reallocate. Under -race, sync.Pool drops a random share of Puts,
// which can add one spurious allocation per op to either measurement, so
// there late may exceed early by that one.
func TestAccumExtendAllocsFlat(t *testing.T) {
	a, b := unzipPairs(randomPairs(xrand.New(8), 400))
	ac, _ := NewAccum(256, 2)
	ac.Extend(a[:8], b[:8], 1) // warm the pools
	lo := 8
	measure := func() float64 {
		return testing.AllocsPerRun(20, func() {
			ac.Extend(a[lo:lo+8], b[lo:lo+8], 1)
			lo += 8
		})
	}
	early := measure()
	late := measure()
	if early > 4 || late > 4 {
		t.Fatalf("Extend allocates per batch: early=%v late=%v allocs/op, want ≤ 4", early, late)
	}
	slack := 0.0
	if raceEnabled {
		slack = 1
	}
	if late > early+slack {
		t.Fatalf("Extend allocations grow with n: early=%v late=%v", early, late)
	}
}
