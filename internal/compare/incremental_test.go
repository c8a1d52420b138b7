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

		ref, err := crit.NewAnalysis(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref.Extend(pairs)
		refRes, err := ref.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		refSnap, err := ref.Snapshot()
		if err != nil {
			t.Fatal(err)
		}

		for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			for _, batch := range []int{1, 3, n} {
				st, err := crit.NewAnalysis(seed, w)
				if err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < n; lo += batch {
					st.Extend(pairs[lo:min(lo+batch, n)])
				}
				res, err := st.Evaluate()
				if err != nil {
					t.Fatal(err)
				}
				if res != refRes {
					t.Fatalf("workers=%d batch=%d: %+v != %+v", w, batch, res, refRes)
				}
				snap, err := st.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(snap, refSnap) {
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
		st, err := PAB{}.NewAnalysis(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		st.Extend(pairs)
		if got, want := st.Point(), pabKernel.Stat(pairs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Point() = %v, PABKernel.Stat = %v", got, want)
		}
		a := make([]float64, n)
		b := make([]float64, n)
		for i, p := range pairs {
			a[i], b[i] = p.A, p.B
		}
		ma, mb := st.Means()
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

	ref, _ := crit.NewAnalysis(9, 1)
	ref.Extend(pairs)
	refSnap, _ := ref.Snapshot()

	half, _ := crit.NewAnalysis(9, 1)
	half.Extend(pairs[:10])
	blob, err := half.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := crit.RestoreAnalysis(blob, 2)
	if err != nil {
		t.Fatal(err)
	}
	if restored.N() != 10 || restored.Seed() != 9 || restored.Bootstrap() != 500 {
		t.Fatalf("restored identity: n=%d seed=%d k=%d", restored.N(), restored.Seed(), restored.Bootstrap())
	}
	restored.Extend(pairs[10:])
	got, _ := restored.Snapshot()
	if !bytes.Equal(got, refSnap) {
		t.Fatal("restore→extend differs from uninterrupted analysis")
	}
}

// parentSnapshotK16 is an AnalysisState snapshot persisted by an earlier
// release: PAB{Bootstrap: 16}.NewAnalysis(5, ·) extended by the first 10 of
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
// all 15 bit for bit.
func TestAnalysisSnapshotCompat(t *testing.T) {
	crit := PAB{Bootstrap: 16}
	pairs := testPairs(xrand.New(41), 15)
	blob, err := hex.DecodeString(parentSnapshotK16)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := crit.RestoreAnalysis(blob, 2)
	if err != nil {
		t.Fatal(err)
	}
	if restored.N() != 10 || restored.Seed() != 5 || restored.Bootstrap() != 16 {
		t.Fatalf("restored identity: n=%d seed=%d k=%d", restored.N(), restored.Seed(), restored.Bootstrap())
	}
	restored.Extend(pairs[10:])
	fresh, _ := crit.NewAnalysis(5, 1)
	fresh.Extend(pairs)
	got, _ := restored.Snapshot()
	want, _ := fresh.Snapshot()
	if !bytes.Equal(got, want) {
		t.Fatal("restored earlier-release snapshot diverges from a from-scratch analysis")
	}
}

// TestRestoreAnalysisRejects: K mismatches, foreign accumulator kinds and
// corrupt blobs are rejected whole.
func TestRestoreAnalysisRejects(t *testing.T) {
	crit := PAB{Bootstrap: 100}
	st, _ := crit.NewAnalysis(1, 1)
	st.Extend(testPairs(xrand.New(2), 8))
	good, _ := st.Snapshot()

	if _, err := (PAB{Bootstrap: 200}).RestoreAnalysis(good, 1); err == nil {
		t.Fatal("accepted a snapshot with mismatched K")
	}
	if _, err := crit.RestoreAnalysis(good[:20], 1); err == nil {
		t.Fatal("accepted a truncated snapshot")
	}
	if _, err := crit.RestoreAnalysis([]byte("not a snapshot at all......"), 1); err == nil {
		t.Fatal("accepted garbage")
	}
	// The same blob with any other accumulator kind byte must be rejected
	// as the wrong kernel.
	kindAt := analysisHeaderSize + len("VBACC1")
	if good[kindAt] != byte(stats.AccPAB) {
		t.Fatalf("kind byte at offset %d is %d, want %d", kindAt, good[kindAt], stats.AccPAB)
	}
	for kind := 0; kind < 256; kind++ {
		if kind == int(stats.AccPAB) {
			continue
		}
		wrong := bytes.Clone(good)
		wrong[kindAt] = byte(kind)
		if _, err := crit.RestoreAnalysis(wrong, 1); err == nil {
			t.Fatalf("accepted a foreign accumulator kind %d", kind)
		}
	}
	if _, err := crit.RestoreAnalysis(good, 1); err != nil {
		t.Fatalf("rejected its own snapshot: %v", err)
	}
	if _, err := (PAB{Bootstrap: -1}).NewAnalysis(1, 1); err == nil {
		t.Fatal("NewAnalysis accepted an invalid criterion")
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
	st, _ := crit.NewAnalysis(3, 1)
	st.Extend(sep)
	res, err := st.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != SignificantAndMeaningful {
		t.Fatalf("separated pairs: %v, want significant and meaningful", res.Decision)
	}

	tied := make([]stats.Pair, 30)
	for i := range tied {
		v := r.NormFloat64()
		tied[i] = stats.Pair{A: v + 0.01*r.NormFloat64(), B: v + 0.01*r.NormFloat64()}
	}
	st2, _ := crit.NewAnalysis(3, 1)
	st2.Extend(tied)
	res2, err := st2.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Decision == SignificantAndMeaningful {
		t.Fatalf("noise-only pairs judged meaningful: %+v", res2)
	}

	// Too few pairs is an error, as on the one-shot path.
	empty, _ := crit.NewAnalysis(3, 1)
	if _, err := empty.Evaluate(); err == nil {
		t.Fatal("Evaluate accepted an empty state")
	}
}
