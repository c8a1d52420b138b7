package xrand

import (
	"fmt"
	"math"
	"testing"
)

// expRef is the per-draw form ExpInto must reproduce bit for bit.
func expRef(r *Source) float64 { return -math.Log1p(-r.Float64()) }

// TestExpIntoMatchesLog1p sweeps log1pNonPos across every branch boundary
// of math.Log1p on (−1, 0] and compares bits: 2¹⁶ neighbouring doubles on
// each side of each boundary, plus the same count of neighbours on the
// 2⁻⁵³ lattice that Float64 actually produces. The boundaries, as u = −x:
// 0 (the −0 argument), 2⁻⁵⁴ and 2⁻²⁹ (the small-argument cuts),
// 1−√2/2 (the k = 0 reduction), the √2 mantissa cut of 1−u in several
// binades, 0.5 (a power-of-two 1−u, where f = 0) and 1−2⁻⁵³ (the largest
// draw).
func TestExpIntoMatchesLog1p(t *testing.T) {
	if !log1pNonPosExact {
		t.Skip("ExpInto calls math.Log1p itself on this platform")
	}
	centers := []float64{
		0,
		0x1p-54,
		0x1p-29,
		1 - math.Sqrt2/2,
		0.5,
		1 - 0x1p-53,
	}
	// 1−u = 2^e · √2 with the mantissa of math.Log1p's cut.
	for _, e := range []int{-1, -2, -3, -9, -30, -52} {
		centers = append(centers, 1-math.Float64frombits(uint64(1023+e)<<52|0x0006a09e667f3bcd))
	}
	const span = 1 << 16
	check := func(u float64) {
		if u < 0 || u >= 1 {
			return
		}
		x := -u
		if got, want := log1pNonPos(x), math.Log1p(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("log1pNonPos(%v) = %v (%#x), math.Log1p = %v (%#x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, c := range centers {
		b := math.Float64bits(c)
		for d := uint64(0); d <= span; d++ {
			check(math.Float64frombits(b + d))
			if b >= d {
				check(math.Float64frombits(b - d))
			}
		}
		m := math.Round(c * (1 << 53))
		for d := -float64(span); d <= span; d++ {
			check((m + d) / (1 << 53))
		}
	}
	// Random draws across the whole range.
	r := New(2718)
	for i := 0; i < 1<<20; i++ {
		check(r.Float64())
	}
}

// FuzzExpInto pins ExpInto to the per-draw reference from any seed: 257
// draws (an odd count, so no block size divides it), compared bitwise, and
// the two streams must end in the same state.
func FuzzExpInto(f *testing.F) {
	for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		got := make([]float64, 257)
		r, ref := New(seed), New(seed)
		r.ExpInto(got)
		for i, g := range got {
			if want := expRef(ref); math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("seed %d draw %d: ExpInto %v (%#x), reference %v (%#x)",
					seed, i, g, math.Float64bits(g), want, math.Float64bits(want))
			}
		}
		if r.Uint64() != ref.Uint64() {
			t.Fatalf("seed %d: ExpInto consumed the stream differently", seed)
		}
	})
}

// TestLabelHashMatchesSplitSeedBytes: hashing a prefix once and continuing
// it, over any split of any label and in any number of steps, yields the
// seed SplitSeedBytes derives from the whole label.
func TestLabelHashMatchesSplitSeedBytes(t *testing.T) {
	r := New(17)
	parent := New(99)
	for trial := 0; trial < 500; trial++ {
		label := make([]byte, r.Intn(40))
		for i := range label {
			label[i] = byte(r.Uint64())
		}
		want := parent.SplitSeedBytes(label)
		cut := 0
		if len(label) > 0 {
			cut = r.Intn(len(label) + 1)
		}
		h := NewLabelHash(label[:cut])
		for rest := label[cut:]; len(rest) > 0; {
			step := 1 + r.Intn(len(rest))
			h, rest = h.Append(rest[:step]), rest[step:]
		}
		if got := parent.SplitSeedHash(h); got != want {
			t.Fatalf("label %q cut %d: SplitSeedHash %#x, SplitSeedBytes %#x", label, cut, got, want)
		}
	}
	// The incremental engine's shape: a per-pair prefix continued by the
	// shard digits.
	pre := NewLabelHash([]byte("incremental/x/12/shard/"))
	if got, want := parent.SplitSeedHash(pre.Append([]byte("7"))),
		parent.SplitSeedBytes([]byte("incremental/x/12/shard/7")); got != want {
		t.Fatalf("prefix hash continued by the shard digits: %#x, want %#x", got, want)
	}
}

// BenchmarkExpInto reports the per-draw cost of the Exp(1) kernel against
// the per-draw reference it replaces, at the incremental engine's block
// size.
func BenchmarkExpInto(b *testing.B) {
	buf := make([]float64, 64)
	for _, bc := range []struct {
		name string
		fill func(r *Source)
	}{
		{"kernel", func(r *Source) { r.ExpInto(buf) }},
		{"log1p", func(r *Source) {
			for i := range buf {
				buf[i] = expRef(r)
			}
		}},
	} {
		b.Run(fmt.Sprintf("%s-n%d", bc.name, len(buf)), func(b *testing.B) {
			r := New(1)
			for i := 0; i < b.N; i++ {
				bc.fill(r)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(buf)), "ns/draw")
		})
	}
}
