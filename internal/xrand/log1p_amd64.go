package xrand

// log1pNonPosExact reports whether log1pNonPos is bit-identical to
// math.Log1p. On amd64 the compiler rounds every floating-point operation
// on its own, as the IEEE argument in log1pNonPos assumes.
const log1pNonPosExact = true
