package nn

// The hidden activation is ReLU, the paper's surrogate nonlinearity; it is
// the only one, so layers call these two functions directly.

// relu writes max(0, x[i]) into dst[i]. dst may alias x.
func relu(dst, x []float64) {
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// reluDeriv writes ReLU's derivative at x[i] (1 where x[i] > 0, else 0)
// into dst[i]. Backprop multiplies by it rather than masking, so signed
// zeros and NaNs propagate as in any multiply. dst may alias x.
func reluDeriv(dst, x []float64) {
	for i, v := range x {
		if v > 0 {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}
