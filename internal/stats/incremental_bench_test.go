package stats

import (
	"fmt"
	"testing"

	"varbench/internal/xrand"
)

// BenchmarkIncrementalExtend is the acceptance benchmark of the incremental
// engine: extending an accumulator by one batch of n_new pairs must cost
// O(K × n_new) regardless of how many pairs the accumulator already holds —
// the nold sweep shows flat per-batch cost, while the from-scratch contrast
// shows what every batch boundary used to pay. Wired into the CI bench
// regression gate (regex `IncrementalExtend`).
func BenchmarkIncrementalExtend(b *testing.B) {
	const k = 1000
	const nNew = 8
	sa, sb := unzipPairs(randomPairs(xrand.New(31), 1024+nNew))

	for _, nOld := range []int{0, 64, 512} {
		base, err := NewAccum(k, 77)
		if err != nil {
			b.Fatal(err)
		}
		base.Extend(sa[:nOld], sb[:nOld], 1)
		work, err := NewAccum(k, 77)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pab-k%d-nold%d-new%d", k, nOld, nNew), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Reset to the n_old state in place (a column copy, no
				// allocation) so every iteration times exactly one batch
				// extension at a fixed n_old.
				copy(work.weight, base.weight)
				copy(work.wwins, base.wwins)
				work.n, work.winsX2, work.sumA, work.sumB = base.n, base.winsX2, base.sumA, base.sumB
				work.Extend(sa[nOld:nOld+nNew], sb[nOld:nOld+nNew], 1)
			}
		})
	}

	// The O(K × n) from-scratch contrast: what re-running the analysis at a
	// batch boundary with 512 accumulated pairs costs without incrementality.
	b.Run(fmt.Sprintf("pab-k%d-fromscratch-n%d", k, 512+nNew), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ac, err := NewAccum(k, 77)
			if err != nil {
				b.Fatal(err)
			}
			ac.Extend(sa[:512+nNew], sb[:512+nNew], 1)
		}
	})
}

// BenchmarkIncrementalCI times reading the percentile interval off a
// populated accumulator — the per-batch-boundary evaluation cost, which is
// O(K) and allocation-free on the pooled scratch.
func BenchmarkIncrementalCI(b *testing.B) {
	ac, err := NewAccum(1000, 77)
	if err != nil {
		b.Fatal(err)
	}
	sa, sb := unzipPairs(randomPairs(xrand.New(31), 64))
	ac.Extend(sa, sb, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ci := ac.CI(0.95); ci.Lo > ci.Hi {
			b.Fatal("inverted CI")
		}
	}
}
