package mat

// Register-blocked GEMM kernels for the surrogate hot path: the one
// implementation behind MulNT and MulNN.
//
// Both kernels preserve the package's bit-identity contract: every output
// row accumulates in exactly the order MatVec/MatTVec would, so batched
// and scalar surrogate queries produce bitwise-identical trajectories.
// Blocking only changes *which* independent accumulations are interleaved
// in time, never the order of additions within one accumulator.
//
// mulNT blocks 4 rows of a against 1 row of b in the main loop (4
// independent accumulator chains saturate the scalar FP units; measured
// 4x2 and 4x4 blocks spill registers and run slower) and blocks the
// *tail* rows of a against 4 rows of b, so batch sizes below 4 (and the
// remainder rows of any batch) also run four independent chains instead
// of one FP-add-latency-bound chain. Each accumulator still sums a single
// dot product in ascending column order — bit-identical to MatVec.
//
// mulNN keeps MatTVec's zero-skip semantics exactly (skipping a zero
// coefficient is NOT equivalent to adding 0*w: -0 + +0 = +0 flips signed
// zeros and 0*Inf = NaN). When all four rows in a block have nonzero
// coefficients it fuses the four axpy passes into one sweep over br,
// loading each weight once for four FMAs; any zero coefficient falls back
// to the per-row loops, preserving the skip bit-exactly.

func mulNT(dst, a, b *Dense) {
	k := a.Cols
	n := b.Rows
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		a0 := a.Data[(i+0)*k : (i+1)*k]
		a1 := a.Data[(i+1)*k : (i+2)*k]
		a2 := a.Data[(i+2)*k : (i+3)*k]
		a3 := a.Data[(i+3)*k : (i+4)*k]
		d0 := dst.Data[(i+0)*n : (i+1)*n]
		d1 := dst.Data[(i+1)*n : (i+2)*n]
		d2 := dst.Data[(i+2)*n : (i+3)*n]
		d3 := dst.Data[(i+3)*n : (i+4)*n]
		for j := 0; j < n; j++ {
			bj := b.Data[j*k : (j+1)*k]
			var s0, s1, s2, s3 float64
			for c, w := range bj {
				s0 += a0[c] * w
				s1 += a1[c] * w
				s2 += a2[c] * w
				s3 += a3[c] * w
			}
			d0[j], d1[j], d2[j], d3[j] = s0, s1, s2, s3
		}
	}
	for ; i < a.Rows; i++ {
		ai := a.Data[i*k : (i+1)*k]
		di := dst.Data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[(j+0)*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			b2 := b.Data[(j+2)*k : (j+3)*k]
			b3 := b.Data[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for c, w0 := range b0 {
				v := ai[c]
				s0 += v * w0
				s1 += v * b1[c]
				s2 += v * b2[c]
				s3 += v * b3[c]
			}
			di[j], di[j+1], di[j+2], di[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			bj := b.Data[j*k : (j+1)*k]
			sum := 0.0
			for c, w := range bj {
				sum += ai[c] * w
			}
			di[j] = sum
		}
	}
}

func mulNN(dst, a, b *Dense) {
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	n := dst.Cols
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		a0 := a.Data[(i+0)*a.Cols : (i+1)*a.Cols]
		a1 := a.Data[(i+1)*a.Cols : (i+2)*a.Cols]
		a2 := a.Data[(i+2)*a.Cols : (i+3)*a.Cols]
		a3 := a.Data[(i+3)*a.Cols : (i+4)*a.Cols]
		d0 := dst.Data[(i+0)*n : (i+1)*n]
		d1 := dst.Data[(i+1)*n : (i+2)*n]
		d2 := dst.Data[(i+2)*n : (i+3)*n]
		d3 := dst.Data[(i+3)*n : (i+4)*n]
		for r := 0; r < b.Rows; r++ {
			y0, y1, y2, y3 := a0[r], a1[r], a2[r], a3[r]
			if y0 == 0 && y1 == 0 && y2 == 0 && y3 == 0 {
				continue
			}
			br := b.Data[r*n : (r+1)*n]
			if y0 != 0 && y1 != 0 && y2 != 0 && y3 != 0 {
				// Fused fast path: one sweep over br, four FMAs per
				// weight. Each dst row still receives w*y in ascending c
				// — identical addition order to the per-row loops below.
				for c, w := range br {
					d0[c] += w * y0
					d1[c] += w * y1
					d2[c] += w * y2
					d3[c] += w * y3
				}
				continue
			}
			if y0 != 0 {
				for c, w := range br {
					d0[c] += w * y0
				}
			}
			if y1 != 0 {
				for c, w := range br {
					d1[c] += w * y1
				}
			}
			if y2 != 0 {
				for c, w := range br {
					d2[c] += w * y2
				}
			}
			if y3 != 0 {
				for c, w := range br {
					d3[c] += w * y3
				}
			}
		}
	}
	for ; i < a.Rows; i++ {
		ai := a.Data[i*a.Cols : (i+1)*a.Cols]
		di := dst.Data[i*n : (i+1)*n]
		for r := 0; r < b.Rows; r++ {
			yr := ai[r]
			if yr == 0 {
				continue
			}
			br := b.Data[r*n : (r+1)*n]
			for c, w := range br {
				di[c] += w * yr
			}
		}
	}
}
