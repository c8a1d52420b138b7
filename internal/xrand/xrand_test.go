package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds collided %d/1000 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		sq += f * f
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sq, cube float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sq += x * x
		cube += x * x * x
	}
	mean := sum / n
	variance := sq/n - mean*mean
	skew := cube / n
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
	if math.Abs(skew) > 0.05 {
		t.Errorf("normal third moment = %v, want ~0", skew)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(17)
	const n, buckets = 100000, 10
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates too far from %v", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUniformBounds(t *testing.T) {
	r := New(19)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform(-3,5) out of range: %v", v)
		}
	}
}

func TestLogUniform(t *testing.T) {
	r := New(23)
	lo, hi := 1e-4, 1e-1
	belowMid := 0
	const n = 20000
	mid := math.Sqrt(lo * hi) // geometric midpoint
	for i := 0; i < n; i++ {
		v := r.LogUniform(lo, hi)
		if v < lo || v >= hi {
			t.Fatalf("LogUniform out of range: %v", v)
		}
		if v < mid {
			belowMid++
		}
	}
	// Log-uniform puts half the mass below the geometric midpoint.
	if math.Abs(float64(belowMid)/n-0.5) > 0.02 {
		t.Errorf("log-uniform median fraction = %v, want ~0.5", float64(belowMid)/n)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		n := 1 + int(seed%57)
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStateRoundTrip(t *testing.T) {
	f := func(seed uint64, warmup uint8) bool {
		r := New(seed)
		for i := 0; i < int(warmup); i++ {
			r.NormFloat64() // exercises the gauss cache
		}
		state := r.State()
		clone := New(0)
		if err := clone.Restore(state); err != nil {
			return false
		}
		for i := 0; i < 100; i++ {
			if r.NormFloat64() != clone.NormFloat64() {
				return false
			}
			if r.Uint64() != clone.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRestoreRejectsBadSize(t *testing.T) {
	if err := New(0).Restore(make([]byte, 3)); err == nil {
		t.Fatal("Restore accepted truncated state")
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(99)
	a := root.Split("alpha")
	b := root.Split("beta")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d/1000 times", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(5).Split("x")
	b := New(5).Split("x")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same split label produced different streams")
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(31)
	const n, trials = 100, 20000
	p := 0.3
	var sum, sq float64
	for i := 0; i < trials; i++ {
		k := float64(r.Binomial(n, p))
		sum += k
		sq += k * k
	}
	mean := sum / trials
	variance := sq/trials - mean*mean
	if math.Abs(mean-float64(n)*p) > 0.3 {
		t.Errorf("binomial mean = %v, want %v", mean, float64(n)*p)
	}
	wantVar := float64(n) * p * (1 - p)
	if math.Abs(variance-wantVar) > 1.5 {
		t.Errorf("binomial variance = %v, want %v", variance, wantVar)
	}
}

// TestStirlingTail pins the series branch of BTRD's Stirling correction to
// its Lgamma definition where the branches meet and beyond.
func TestStirlingTail(t *testing.T) {
	for k := 9; k <= 400; k++ {
		kp := float64(k) + 1
		lg, _ := math.Lgamma(kp)
		want := lg - ((kp-0.5)*math.Log(kp) - kp + 0.5*math.Log(2*math.Pi))
		if got := stirlingTail(k); math.Abs(got-want) > 1e-10 {
			t.Errorf("stirlingTail(%d) = %v, want %v", k, got, want)
		}
	}
}

// BenchmarkBinomial times one draw in each regime: inversion (n·p < 10)
// and BTRD, at the class-count shapes of a paired bootstrap of n pairs.
func BenchmarkBinomial(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		p    float64
	}{{"inversion-np5", 50, 0.1}, {"btrd-np25", 50, 0.5}, {"btrd-np5000", 10000, 0.5}} {
		b.Run(c.name, func(b *testing.B) {
			r := New(1)
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += r.Binomial(c.n, c.p)
			}
			if sum < 0 {
				b.Fatal(sum)
			}
		})
	}
}

func TestShuffleIntsPreservesMultiset(t *testing.T) {
	r := New(41)
	p := []int{1, 1, 2, 3, 5, 8, 13}
	sum := 0
	for _, v := range p {
		sum += v
	}
	r.ShuffleInts(p)
	got := 0
	for _, v := range p {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed contents: sum %d != %d", got, sum)
	}
}

func TestSplitSeedBytesMatchesSplit(t *testing.T) {
	labels := []string{"", "bootstrap/shard/0", "bootstrap/shard/63", "dataset/cifar10", "变"}
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		parent := New(seed)
		for _, label := range labels {
			want := New(seed).Split(label)
			var got Source
			got.Seed(parent.SplitSeedBytes([]byte(label)))
			for i := 0; i < 8; i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d label %q draw %d: SplitSeedBytes stream %d != Split stream %d",
						seed, label, i, g, w)
				}
			}
		}
	}
}

// TestSampleBulkMatchesIntn pins the bulk samplers to the sequential Intn
// contract: same accepted indices, same accumulation order, same stream
// consumption — the invariant the fused bootstrap kernels rely on. Small n
// near powers of two exercises the Lemire rejection path.
func TestSampleBulkMatchesIntn(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 29, 64, 1000} {
		x := make([]float64, n)
		w := make([]int64, n)
		ref := New(uint64(n))
		for i := range x {
			x[i] = ref.NormFloat64()
			w[i] = int64(ref.Intn(5))
		}
		for _, draws := range []int{0, 1, 5, 200} {
			seed := uint64(100*n + draws)
			// SampleSumInt vs sequential integer accumulation.
			ra, rb := New(seed), New(seed)
			var isum int64
			for i := 0; i < draws; i++ {
				isum += w[ra.Intn(n)]
			}
			if got := rb.SampleSumInt(w, draws); got != isum {
				t.Fatalf("n=%d draws=%d: SampleSumInt %v != sequential %v", n, draws, got, isum)
			}
			if ra.Uint64() != rb.Uint64() {
				t.Fatalf("n=%d draws=%d: SampleSumInt consumed the stream differently", n, draws)
			}
			// SampleInto vs sequential gather, on a non-float64 element type.
			type pair struct{ a, b float64 }
			src := make([]pair, n)
			for i := range src {
				src[i] = pair{x[i], -x[i]}
			}
			ra, rb = New(seed), New(seed)
			want := make([]pair, draws)
			for i := range want {
				want[i] = src[ra.Intn(n)]
			}
			got := make([]pair, draws)
			SampleInto(rb, got, src)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d draws=%d: SampleInto[%d] = %v, want %v", n, draws, i, got[i], want[i])
				}
			}
			if ra.Uint64() != rb.Uint64() {
				t.Fatalf("n=%d draws=%d: SampleInto consumed the stream differently", n, draws)
			}
		}
	}
}

func TestSampleBulkEmptyPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on empty sample did not panic", name)
			}
		}()
		f()
	}
	r := New(1)
	mustPanic("SampleSumInt", func() { r.SampleSumInt(nil, 3) })
	mustPanic("SampleInto", func() { SampleInto(r, make([]float64, 2), nil) })
	// Zero draws from an empty sample is a no-op, like zero Intn calls.
	if got := r.SampleSumInt(nil, 0); got != 0 {
		t.Errorf("SampleSumInt(nil, 0) = %v, want 0", got)
	}
	before := New(1).Uint64()
	if r.Uint64() != before {
		t.Error("empty-sample panics consumed randomness")
	}
}
