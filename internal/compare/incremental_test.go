package compare

import (
	"bytes"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"varbench/internal/stats"
	"varbench/internal/xrand"
)

// The incremental analysis of a score stream is a stats.Accum read through
// PAB.Decide; these tests pin that pairing against the one-shot criterion.

func testPairs(r *xrand.Source, n int) []stats.Pair {
	p := make([]stats.Pair, n)
	for i := range p {
		base := r.NormFloat64()
		a := base + 0.4 + 0.3*r.NormFloat64()
		b := base + 0.3*r.NormFloat64()
		if r.Bernoulli(0.15) {
			b = a // exercise the tie arm
		}
		p[i] = stats.Pair{A: a, B: b}
	}
	return p
}

// extend feeds pairs to ac through its two-slice Extend.
func extend(ac *stats.Accum, pairs []stats.Pair, workers int) {
	a := make([]float64, len(pairs))
	b := make([]float64, len(pairs))
	for i, p := range pairs {
		a[i], b[i] = p.A, p.B
	}
	ac.Extend(a, b, workers)
}

// newAccum starts the incremental analysis crit describes.
func newAccum(t *testing.T, crit PAB, seed uint64) *stats.Accum {
	t.Helper()
	ac, err := stats.NewAccum(crit.boots(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return ac
}

// decide runs crit's three-zone decision on the pairs ac has consumed.
func decide(crit PAB, ac *stats.Accum) Result {
	return crit.Decide(ac.Point(), ac.CI(crit.level()))
}

// snapshot serializes ac, failing the test on error.
func snapshot(t *testing.T, ac *stats.Accum) []byte {
	t.Helper()
	b, err := ac.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAnalysisStateBitIdentical: feeding pairs batch by batch — at any
// worker count — matches the single-shot analysis of the full sequence
// bit for bit, including the serialized accumulator state.
func TestAnalysisStateBitIdentical(t *testing.T) {
	r := xrand.New(17)
	crit := PAB{Gamma: 0.75, Level: 0.95, Bootstrap: 300}
	for trial := 0; trial < 6; trial++ {
		n := 5 + r.Intn(25)
		seed := r.Uint64()
		pairs := testPairs(r, n)

		ref := newAccum(t, crit, seed)
		extend(ref, pairs, 1)
		refRes := decide(crit, ref)
		refSnap := snapshot(t, ref)

		for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			for _, batch := range []int{1, 3, n} {
				ac := newAccum(t, crit, seed)
				for lo := 0; lo < n; lo += batch {
					extend(ac, pairs[lo:min(lo+batch, n)], w)
				}
				if res := decide(crit, ac); res != refRes {
					t.Fatalf("workers=%d batch=%d: %+v != %+v", w, batch, res, refRes)
				}
				if !bytes.Equal(snapshot(t, ac), refSnap) {
					t.Fatalf("workers=%d batch=%d: snapshot differs", w, batch)
				}
			}
		}
	}
}

// TestAnalysisStatePointMatchesKernel: the incremental point estimate and
// means are bit-identical to their one-shot counterparts (PABKernel.Stat
// and stats.Mean) — only the CI changes resampling scheme.
func TestAnalysisStatePointMatchesKernel(t *testing.T) {
	r := xrand.New(23)
	for trial := 0; trial < 10; trial++ {
		n := 2 + r.Intn(40)
		pairs := testPairs(r, n)
		ac := newAccum(t, PAB{}, 1)
		extend(ac, pairs, 1)
		if got, want := ac.Point(), pabKernel.Stat(pairs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Point() = %v, PABKernel.Stat = %v", got, want)
		}
		a := make([]float64, n)
		b := make([]float64, n)
		for i, p := range pairs {
			a[i], b[i] = p.A, p.B
		}
		ma, mb := ac.Means()
		if math.Float64bits(ma) != math.Float64bits(stats.Mean(a)) ||
			math.Float64bits(mb) != math.Float64bits(stats.Mean(b)) {
			t.Fatalf("Means() = (%v, %v), want (%v, %v)", ma, mb, stats.Mean(a), stats.Mean(b))
		}
	}
}

// TestAnalysisStateSnapshotResume: snapshot mid-stream, restore, feed the
// rest — the final evaluation and state match the uninterrupted run.
func TestAnalysisStateSnapshotResume(t *testing.T) {
	r := xrand.New(29)
	crit := PAB{Bootstrap: 500}
	n := 24
	pairs := testPairs(r, n)

	ref := newAccum(t, crit, 9)
	extend(ref, pairs, 1)
	refSnap := snapshot(t, ref)

	half := newAccum(t, crit, 9)
	extend(half, pairs[:10], 1)
	restored := newAccum(t, crit, 9)
	if err := restored.UnmarshalBinary(snapshot(t, half)); err != nil {
		t.Fatal(err)
	}
	if restored.N() != 10 || restored.Seed() != 9 || restored.K() != 500 {
		t.Fatalf("restored identity: n=%d seed=%d k=%d", restored.N(), restored.Seed(), restored.K())
	}
	extend(restored, pairs[10:], 2)
	if !bytes.Equal(snapshot(t, restored), refSnap) {
		t.Fatal("restore→extend differs from uninterrupted analysis")
	}
	if decide(crit, restored) != decide(crit, ref) {
		t.Fatal("restore→extend decides differently from uninterrupted analysis")
	}
}

// parentSnapshotK16 is an analysis snapshot persisted by an earlier
// release: a K=16 analysis seeded 5 extended by the first 10 of
// testPairs(xrand.New(41), 15). Stores written then must keep resuming.
const parentSnapshotK16 = "" +
	"5642414e53310a000000000000000700000000000000d6f2763379db0e4036db" +
	"e30342250a4056424143433104100000000000000005000000000000000a0000" +
	"000000000000000000000000001be96138bc3723406276efc4d07c2e409ebf39" +
	"cb76c721409748fffe7df82840baab2b63ebc02c4099e7500323381440a78765" +
	"04fcfe274074b9f57f7db023402eba935e2dd2284094e26f461ea11a40bc82ca" +
	"509f562240c0a54b2d83262f40bfe370a58cab254087719483a2c7164052e231" +
	"54dff424407cda451dba4c25407229fb5f31491840172d7e161eb9184028f6bb" +
	"5b12f2204029c578caf4401c4012cf25fa2ee21c408c0ed1fc79c00a4011ac59" +
	"0c3454fe3fdeb12c710bdb1a40c1d889252d9c2840dfbe580b705c1140c49bc8" +
	"b6d0861d40fe484399634e3140401549c3c09c1840bd1a2a70839601406c5e4d" +
	"d18d77164078a3db862b711d40"

// TestAnalysisSnapshotCompat: a snapshot written by an earlier release
// restores, extends by 5 more pairs, and matches a from-scratch analysis of
// all 15 bit for bit; the same 10 pairs still serialize to its exact bytes.
func TestAnalysisSnapshotCompat(t *testing.T) {
	crit := PAB{Bootstrap: 16}
	pairs := testPairs(xrand.New(41), 15)
	blob, err := hex.DecodeString(parentSnapshotK16)
	if err != nil {
		t.Fatal(err)
	}
	restored := newAccum(t, crit, 5)
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.N() != 10 || restored.Seed() != 5 || restored.K() != 16 {
		t.Fatalf("restored identity: n=%d seed=%d k=%d", restored.N(), restored.Seed(), restored.K())
	}
	prefix := newAccum(t, crit, 5)
	extend(prefix, pairs[:10], 1)
	if !bytes.Equal(snapshot(t, prefix), blob) {
		t.Fatal("snapshot bytes differ from the earlier release's for the same pairs")
	}
	extend(restored, pairs[10:], 2)
	fresh := newAccum(t, crit, 5)
	extend(fresh, pairs, 1)
	if !bytes.Equal(snapshot(t, restored), snapshot(t, fresh)) {
		t.Fatal("restored earlier-release snapshot diverges from a from-scratch analysis")
	}
}

// TestRestoreAnalysisRejects: K or seed mismatches, foreign accumulator
// kinds and corrupt blobs are rejected whole.
func TestRestoreAnalysisRejects(t *testing.T) {
	crit := PAB{Bootstrap: 100}
	ac := newAccum(t, crit, 1)
	extend(ac, testPairs(xrand.New(2), 8), 1)
	good := snapshot(t, ac)

	restore := func(crit PAB, seed uint64, blob []byte) error {
		return newAccum(t, crit, seed).UnmarshalBinary(blob)
	}
	if err := restore(PAB{Bootstrap: 200}, 1, good); err == nil {
		t.Fatal("accepted a snapshot with mismatched K")
	}
	if err := restore(crit, 2, good); err == nil {
		t.Fatal("accepted a snapshot with a different seed")
	}
	if err := restore(crit, 1, good[:20]); err == nil {
		t.Fatal("accepted a truncated snapshot")
	}
	if err := restore(crit, 1, []byte("not a snapshot at all......")); err == nil {
		t.Fatal("accepted garbage")
	}
	// The same blob with any other accumulator kind byte must be rejected
	// as the wrong kernel. The kind byte follows the 38-byte exact-sums
	// header and the accumulator magic; the weighted P(A>B) kind is 4.
	const kindAt, pabKind = len("VBANS1") + 4*8 + len("VBACC1"), 4
	if good[kindAt] != pabKind {
		t.Fatalf("kind byte at offset %d is %d, want %d", kindAt, good[kindAt], pabKind)
	}
	for kind := 0; kind < 256; kind++ {
		if kind == pabKind {
			continue
		}
		wrong := bytes.Clone(good)
		wrong[kindAt] = byte(kind)
		if err := restore(crit, 1, wrong); err == nil {
			t.Fatalf("accepted a foreign accumulator kind %d", kind)
		}
	}
	if err := restore(crit, 1, good); err != nil {
		t.Fatalf("rejected its own snapshot: %v", err)
	}
	if _, err := stats.NewAccum((PAB{Bootstrap: -1}).boots(), 1); err == nil {
		t.Fatal("NewAccum accepted an invalid criterion's resample count")
	}
}

// TestAnalysisStateDecisions: the incremental three-zone decision agrees
// with the one-shot path on clearly separated and clearly tied data.
func TestAnalysisStateDecisions(t *testing.T) {
	r := xrand.New(37)
	crit := PAB{Gamma: 0.75}

	sep := make([]stats.Pair, 30)
	for i := range sep {
		sep[i] = stats.Pair{A: 1 + 0.05*r.NormFloat64(), B: 0.05 * r.NormFloat64()}
	}
	ac := newAccum(t, crit, 3)
	extend(ac, sep, 1)
	if res := decide(crit, ac); res.Decision != SignificantAndMeaningful {
		t.Fatalf("separated pairs: %v, want significant and meaningful", res.Decision)
	}

	tied := make([]stats.Pair, 30)
	for i := range tied {
		v := r.NormFloat64()
		tied[i] = stats.Pair{A: v + 0.01*r.NormFloat64(), B: v + 0.01*r.NormFloat64()}
	}
	ac2 := newAccum(t, crit, 3)
	extend(ac2, tied, 1)
	if res2 := decide(crit, ac2); res2.Decision == SignificantAndMeaningful {
		t.Fatalf("noise-only pairs judged meaningful: %+v", res2)
	}

	// An empty analysis has no estimate to decide on: its point and
	// interval are NaN, which is why callers need ≥ 2 pairs, as on the
	// one-shot path.
	empty := newAccum(t, crit, 3)
	if ci := empty.CI(crit.level()); !math.IsNaN(empty.Point()) || !math.IsNaN(ci.Lo) || !math.IsNaN(ci.Hi) {
		t.Fatalf("empty analysis: point %v, CI %+v, want NaN", empty.Point(), ci)
	}
	if _, err := crit.Evaluate(sep[:1], 3, 1); err == nil {
		t.Fatal("Evaluate accepted a single pair")
	}
}
