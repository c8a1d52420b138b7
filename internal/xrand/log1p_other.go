//go:build !amd64

package xrand

// log1pNonPosExact reports whether log1pNonPos is bit-identical to
// math.Log1p. Elsewhere the compiler may fuse a multiply and an add into
// one rounding (or math.Log1p is assembly), differently in math.Log1p and
// in log1pNonPos, so ExpInto calls math.Log1p itself.
const log1pNonPosExact = false
