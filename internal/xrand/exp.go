package xrand

import "math"

// Exp(1) draws for the weighted bootstrap's resampling weights. ExpInto is
// the bulk form of -math.Log1p(-r.Float64()): same Uint64 consumption, same
// bits, at a fraction of the per-draw cost.

// ExpInto fills dst with Exp(1) draws: bit-identical to
// `for i := range dst { dst[i] = -math.Log1p(-r.Float64()) }`, consuming
// one Uint64 per element. Each draw is finite and non-negative, and 0
// exactly when the uniform is (probability 2⁻⁵³). Like SampleInto it runs
// the generator on a register-local state copy, and it evaluates the
// logarithm with log1pNonPos, which drops math.Log1p's branches that no
// argument in (−1, 0] reaches. TestExpIntoMatchesLog1p and FuzzExpInto pin
// the equivalence.
func (r *Source) ExpInto(dst []float64) {
	if !log1pNonPosExact {
		for i := range dst {
			dst[i] = -math.Log1p(-r.Float64())
		}
		return
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		res := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		// res>>11 < 2⁵³ converts exactly through int64, which skips the
		// unsigned conversion's sign fix-up; the value equals Float64's.
		dst[i] = -log1pNonPos(-(float64(int64(res>>11)) / (1 << 53)))
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// log1pNonPos returns math.Log1p(x) bit for bit, for x ∈ (−1, 0]. It is
// math.Log1p's algorithm (FreeBSD's s_log1p.c) with the same IEEE
// operations in the same order, minus what that domain never reaches:
//
//   - the NaN, −1 and ±Inf special cases, and the |x| ≥ 2⁵³ reduction;
//   - the |x| < 2⁻⁵⁴ early return: there x − x·x·0.5 rounds to x, so the
//     |x| < 2⁻²⁹ branch covers it (−0 included);
//   - the k > 0 correction term: 1+x < 1, so k ≤ 0;
//   - the k = 0 exits of the |f| < 2⁻²⁰ branch: only a 1+x ≤ √2/2 that
//     is a power of two or just below one reaches it, so k ≤ −1 there.
//
// The two unpredictable branches of math.Log1p — the k = 0 reduction for
// √2/2−1 < x, and the √2 mantissa cut of the k ≠ 0 reduction — become
// selects. Both reductions then finish with the k ≠ 0 formula: with k = 0
// and c = 0, kH − ((hfsq − (s(hfsq+R) + (0·Ln2Lo + 0))) − f) equals
// math.Log1p's f − (hfsq − s(hfsq+R)), since a − b = −(b − a) exactly in
// IEEE arithmetic and adding +0 to a nonzero value is exact.
//
// The equivalence holds only where the compiler evaluates each operation
// with its own rounding; log1pNonPosExact gates ExpInto on that.
func log1pNonPos(x float64) float64 {
	const (
		Sqrt2HalfM1 = -2.928932188134524755992e-01 // Sqrt(2)/2-1, rounds to 0xbfd2bec333018867 as in math
		Small       = 1.0 / (1 << 29)              // 2**-29 = 0x3e20000000000000
		Ln2Hi       = 6.93147180369123816490e-01   // 3fe62e42fee00000
		Ln2Lo       = 1.90821492927058770002e-10   // 3dea39ef35793c76
		Lp1         = 6.666666666666735130e-01     // 3FE5555555555593
		Lp2         = 3.999999999940941908e-01     // 3FD999999997FA04
		Lp3         = 2.857142874366239149e-01     // 3FD2492494229359
		Lp4         = 2.222219843214978396e-01     // 3FCC71C51D8E78AF
		Lp5         = 1.818357216161805012e-01     // 3FC7466496CB03DE
		Lp6         = 1.531383769920937332e-01     // 3FC39A09D078C69F
		Lp7         = 1.479819860511658591e-01     // 3FC2F112DF3E5244
	)
	if x > -Small { // |x| < 2**-29
		return x - x*x*0.5
	}
	// The k ≠ 0 reduction: 1+x = 2^k · u with √2/2 ≤ u < √2.
	u := 1.0 + x
	iu := math.Float64bits(u)
	k := int((iu >> 52) - 1023)
	c := (x - (u - 1.0)) / u // correction term
	iu &= 0x000fffffffffffff
	// Branch-free selects (the compiler emits CMOV only for a single
	// phi): lt is all ones when iu is below the mantissa of Sqrt(2), in
	// which case u is normalized into [1, Sqrt(2)); otherwise k++ and u/2
	// is normalized into [Sqrt(2)/2, 1).
	lt := uint64(int64(iu-0x0006a09e667f3bcd) >> 63)
	k += int(^lt & 1)
	ub := iu | (0x3fe0000000000000 + lt&0x0010000000000000)
	iu = iu&lt | (0x0010000000000000-iu)>>2&^lt
	fb, cb := math.Float64bits(math.Float64frombits(ub)-1.0), math.Float64bits(c)
	// The k = 0 reduction for Sqrt(2)/2-1 < x: f = x, c = 0. Both are
	// negative, so x > Sqrt2HalfM1 exactly when x's bits are below its.
	xb := math.Float64bits(x)
	km := uint64(int64(xb-math.Float64bits(Sqrt2HalfM1)) >> 63)
	k &^= int(km)
	fb = fb&^km | xb&km
	cb &^= km
	iu = iu&^km | 1&km
	f, c := math.Float64frombits(fb), math.Float64frombits(cb)
	hfsq := 0.5 * f * f
	if iu == 0 { // |f| < 2**-20
		if f == 0 {
			c += float64(k) * Ln2Lo
			return float64(k)*Ln2Hi + c
		}
		R := hfsq * (1.0 - 0.66666666666666666*f) // avoid division
		return float64(k)*Ln2Hi - ((R - (float64(k)*Ln2Lo + c)) - f)
	}
	s := f / (2.0 + f)
	z := s * s
	R := z * (Lp1 + z*(Lp2+z*(Lp3+z*(Lp4+z*(Lp5+z*(Lp6+z*Lp7))))))
	return float64(k)*Ln2Hi - ((hfsq - (s*(hfsq+R) + (float64(k)*Ln2Lo + c))) - f)
}
