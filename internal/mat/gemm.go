package mat

// Register-blocked GEMM kernels for the surrogate hot path and training:
// the one implementation behind MulNT, MulNN and MulTNAcc.
//
// Every kernel preserves the package's bit-identity contract: each output
// element accumulates in exactly the order of the plain per-row loop — an
// ascending-column dot product for mulNT, an ascending zero-skipping sum
// of weighted rows for mulNN, the per-row rank-1 update for mulTNAcc —
// so a surrogate query returns the same bits in a batch of any size and a
// minibatch trains as its rows would one at a time. Blocking only changes
// *which* independent accumulations are interleaved in time, never the
// order of additions within one accumulator.
//
// mulNT blocks 4 rows of a against 1 row of b in the main loop (4
// independent accumulator chains saturate the scalar FP units; measured
// 4x2 and 4x4 blocks spill registers and run slower) and blocks the
// *tail* rows of a against 4 rows of b, so batch sizes below 4 (and the
// remainder rows of any batch) also run four independent chains instead
// of one FP-add-latency-bound chain. Each accumulator still sums a single
// dot product in ascending column order.
//
// mulNN and mulTNAcc both build each dst row as a sum of b's rows weighted
// by coefficients from a — a row of a for mulNN, a column for mulTNAcc —
// and skip every zero coefficient (skipping a zero coefficient is NOT
// equivalent to adding 0*w: -0 + +0 = +0 flips signed zeros and 0*Inf =
// NaN). Each first lists the nonzero coefficients in ascending order
// (nonzero), then adds their rows four at a time (addRows): one sweep over
// the dst row per four rows, holding each element in a register across
// its four adds. Every element still receives its terms one at a time in
// ascending order. Listing first matters twice over: ReLU zeros make four
// consecutive nonzero coefficients rare, and they make a branch on each
// coefficient mispredict about half the time, which the branch-free list
// avoids.

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
	var nz [chunk]int
	for i := 0; i < a.Rows; i++ {
		di := dst.Row(i)
		for c := range di {
			di[c] = 0
		}
		ai := a.Row(i)
		for lo := 0; lo < len(ai); lo += chunk {
			addRows(di, ai, 1, nonzero(&nz, ai, 1, lo, min(lo+chunk, len(ai))), b)
		}
	}
}

func mulTNAcc(dst, a, b *Dense) {
	var nz [chunk]int
	for r := 0; r < a.Cols; r++ {
		// Column r of a, as a strided view.
		col := a.Data[r:]
		for lo := 0; lo < a.Rows; lo += chunk {
			addRows(dst.Row(r), col, a.Cols, nonzero(&nz, col, a.Cols, lo, min(lo+chunk, a.Rows)), b)
		}
	}
}

// chunk is how many coefficients nonzero lists at a time; the list lives
// on the stack.
const chunk = 128

// nonzero lists, in ascending order, the indices s in [lo, hi) whose
// coefficient coef[s*stride] is nonzero. The index is always written and
// only the count is conditional, which compiles to a conditional move
// rather than a branch.
func nonzero(nz *[chunk]int, coef []float64, stride, lo, hi int) []int {
	k := 0
	for s := lo; s < hi; s++ {
		nz[k] = s
		if coef[s*stride] != 0 {
			k++
		}
	}
	return nz[:k]
}

// addRows adds coef[s*stride] * (row s of b) to d for each listed s, in
// list order: four rows per sweep over d, then the rest one at a time.
func addRows(d, coef []float64, stride int, rows []int, b *Dense) {
	n := len(d)
	j := 0
	for ; j+4 <= len(rows); j += 4 {
		s0, s1, s2, s3 := rows[j], rows[j+1], rows[j+2], rows[j+3]
		y0, y1, y2, y3 := coef[s0*stride], coef[s1*stride], coef[s2*stride], coef[s3*stride]
		b0 := b.Data[s0*n : (s0+1)*n][:n]
		b1 := b.Data[s1*n : (s1+1)*n][:n]
		b2 := b.Data[s2*n : (s2+1)*n][:n]
		b3 := b.Data[s3*n : (s3+1)*n][:n]
		for c, v := range d {
			v += b0[c] * y0
			v += b1[c] * y1
			v += b2[c] * y2
			v += b3[c] * y3
			d[c] = v
		}
	}
	for _, s := range rows[j:] {
		y := coef[s*stride]
		for c, w := range b.Data[s*n : (s+1)*n] {
			d[c] += w * y
		}
	}
}
