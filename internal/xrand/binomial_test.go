package xrand_test

import (
	"math"
	"testing"

	"varbench/internal/stats"
	"varbench/internal/xrand"
)

// TestBinomialMatchesPMF draws from Source.Binomial on a grid that covers
// both regimes (inversion below n·min(p,1−p) = 10, BTRD from 10 on), both
// sides of that switch, p near 0, ½ and 1, and n from 1 to 10⁶, and G-tests
// each cell's histogram against stats.Binomial.PMF. Bins are merged until
// each expects at least 5 draws; draws outside the ±12σ window land in the
// edge bins, whose tiny expectation makes any such draw fail the test.
func TestBinomialMatchesPMF(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{
		{1, 0.3}, {5, 0.5}, {19, 0.5}, {20, 0.49}, {20, 0.5}, {21, 0.5},
		{30, 0.3333}, {30, 0.3334}, {40, 0.2499}, {40, 0.25},
		{100, 0.0999}, {100, 0.1}, {100, 0.9}, {100, 0.9001}, {100, 0.5},
		{1000, 0.001}, {1000, 0.0099}, {1000, 0.01}, {1000, 0.0101}, {1000, 0.5},
		{1000, 0.5000001}, {1000, 0.4999999}, {1000, 0.99}, {1000, 0.9901}, {1000, 0.999},
		{10000, 1e-5}, {10000, 0.0009}, {10000, 0.0011}, {10000, 0.123}, {10000, 0.5},
		{10000, 0.877}, {10000, 0.9991}, {10000, 0.99999},
		{1_000_000, 5e-6}, {1_000_000, 0.2}, {1_000_000, 0.5}, {1_000_000, 0.999995},
	}
	const draws = 40000
	r := xrand.New(20260917)
	for _, c := range cases {
		d := stats.Binomial{N: c.n, P: c.p}
		sd := d.Std()
		lo := max(0, int(math.Floor(d.Mean()-12*sd-5)))
		hi := min(c.n, int(math.Ceil(d.Mean()+12*sd+5)))
		counts := make([]float64, hi-lo+1)
		for i := 0; i < draws; i++ {
			k := r.Binomial(c.n, c.p)
			if k < 0 || k > c.n {
				t.Fatalf("Binomial(%d, %v) = %d, outside [0, n]", c.n, c.p, k)
			}
			counts[min(max(k, lo), hi)-lo]++
		}
		var obs, exp []float64
		var o, e float64
		for k := lo; k <= hi; k++ {
			o += counts[k-lo]
			e += draws * d.PMF(k)
			if e >= 5 {
				obs, exp = append(obs, o), append(exp, e)
				o, e = 0, 0
			}
		}
		if len(obs) == 0 {
			t.Fatalf("Binomial(%d, %v): no bin reaches 5 expected draws", c.n, c.p)
		}
		obs[len(obs)-1] += o
		exp[len(exp)-1] += e
		g := 0.0
		for i := range obs {
			if obs[i] > 0 {
				g += 2 * obs[i] * math.Log(obs[i]/exp[i])
			}
		}
		if len(obs) == 1 {
			continue // a single bin holds every draw: nothing to test
		}
		df := float64(len(obs) - 1)
		if pv := 1 - (stats.ChiSquared{K: df}).CDF(g); pv < 1e-4 {
			t.Errorf("Binomial(%d, %v): G = %.1f on %v df, p = %.2g", c.n, c.p, g, df, pv)
		}
	}
}

// TestBinomialDegenerate pins the defined results of degenerate inputs and
// that they consume no randomness.
func TestBinomialDegenerate(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int
	}{
		{0, 0.5, 0}, {-3, 0.5, 0}, {math.MinInt, 0.5, 0},
		{10, 0, 0}, {10, -0.2, 0}, {10, math.Inf(-1), 0}, {10, math.NaN(), 0},
		{10, 1, 10}, {10, 1.5, 10}, {10, math.Inf(1), 10},
		{-1, math.NaN(), 0}, {-1, 1, 0},
	}
	for _, c := range cases {
		r, ref := xrand.New(5), xrand.New(5)
		if got := r.Binomial(c.n, c.p); got != c.want {
			t.Errorf("Binomial(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
		if r.Uint64() != ref.Uint64() {
			t.Errorf("Binomial(%d, %v) consumed randomness", c.n, c.p)
		}
	}
}

// FuzzBinomial: any n, any p, any seed — the draw terminates and lies in
// [0, n] (0 for n ≤ 0).
func FuzzBinomial(f *testing.F) {
	f.Add(uint64(1), 10, 0.5)
	f.Add(uint64(2), 20, 0.5)
	f.Add(uint64(3), 1000, 0.0099)
	f.Add(uint64(4), math.MaxInt, 0.5)
	f.Add(uint64(5), math.MaxInt, 1e-18)
	f.Add(uint64(6), 1<<40, 0.999999)
	f.Add(uint64(7), -5, 0.3)
	f.Add(uint64(8), 7, math.NaN())
	f.Add(uint64(9), 1<<20, 5e-324)
	f.Fuzz(func(t *testing.T, seed uint64, n int, p float64) {
		r := xrand.New(seed)
		for i := 0; i < 16; i++ {
			k := r.Binomial(n, p)
			if k < 0 || k > max(n, 0) {
				t.Fatalf("Binomial(%d, %v) = %d, outside [0, max(n, 0)]", n, p, k)
			}
		}
	})
}
