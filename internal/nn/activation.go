package nn

import "math"

// The hidden activation is ReLU, the paper's surrogate nonlinearity; it is
// the only one, so layers call these two functions directly.
//
// Both test x > 0 as one unsigned comparison on x's bits: the patterns
// 1 through 0x7FF0000000000000 are exactly the values in (0, +Inf], so
// -0, every negative value and every NaN fail it as they fail x > 0. One
// integer comparison compiles to a conditional move; a float branch would
// mispredict on ReLU's near-random signs.

// positive reports whether the value with bits u is > 0.
func positive(u uint64) bool { return u-1 < 0x7FF0000000000000 }

// relu writes max(0, x[i]) into dst[i] (0 for NaN and -0). dst may alias x.
func relu(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		var o uint64
		if u := math.Float64bits(v); positive(u) {
			o = u
		}
		dst[i] = math.Float64frombits(o)
	}
}

// reluDeriv writes ReLU's derivative at x[i] (1 where x[i] > 0, else 0)
// into dst[i]. Backprop multiplies by it rather than masking, so signed
// zeros and NaNs propagate as in any multiply. dst may alias x.
func reluDeriv(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		var o uint64
		if positive(math.Float64bits(v)) {
			o = 0x3FF0000000000000 // 1.0
		}
		dst[i] = math.Float64frombits(o)
	}
}
