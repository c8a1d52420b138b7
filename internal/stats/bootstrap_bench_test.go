package stats

import (
	"fmt"
	"runtime"
	"testing"

	"varbench/internal/xrand"
)

// The bootstrap benchmarks pin the protocol's hot loop at the paper's
// recommended operating point: K=1000 resamples of n=29 pairs (Noether's N
// for γ=0.75), through the two seeded entry points the protocol runs — the
// fused paired P(A>B) kernel (0 allocs/op in steady state) and the
// buffered unpaired Mann-Whitney statistic.

func benchPairs(n int) []Pair {
	r := xrand.New(6)
	pairs := make([]Pair, n)
	for i := range pairs {
		base := r.NormFloat64()
		pairs[i] = Pair{A: base + 0.5, B: base + 0.3*r.NormFloat64()}
	}
	return pairs
}

// The index-n*/counts-n* sub-benchmarks time PABKernel's two resampling
// paths on the same pairs (≈40% wins, 20% ties) at each n, serially; their
// crossover sets pabIndexMaxN.
func BenchmarkPairedBootstrapK1000(b *testing.B) {
	pairs := benchPairs(29)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("fused-pab-workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PairedPercentileBootstrapKernel(pairs, PABKernel{}, 1000, 0.95, 9, w)
			}
		})
	}
	for _, n := range []int{16, 32, 48, 64, 96, 128, 1000, 10000} {
		tied := randomPairs(xrand.New(uint64(n)), n)
		for _, path := range []struct {
			name    string
			byIndex bool
		}{{"index", true}, {"counts", false}} {
			b.Run(fmt.Sprintf("%s-n%d", path.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pabBootstrap(tied, path.byIndex, 1000, 0.95, 9, 1)
				}
			})
		}
	}
}

func BenchmarkTwoSampleBootstrapK1000(b *testing.B) {
	r := xrand.New(3)
	a := make([]float64, 29)
	c := make([]float64, 29)
	for i := range a {
		a[i] = r.NormFloat64() + 0.5
		c[i] = r.NormFloat64()
	}
	stat := TwoSampleStatFunc(func(x, y []float64) float64 { return MannWhitney(x, y, TwoTailed).PAB })
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				TwoSampleBootstrapKernel(a, c, stat, 1000, 0.95, 9, w)
			}
		})
	}
}
