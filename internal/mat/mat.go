// Package mat implements the small dense linear-algebra kernels needed by
// the neural-network library: the forward and backward matrix products of
// a batch of rows (MulNT, MulNN), the batched weight gradient (MulTNAcc),
// and element-wise helpers.
//
// Every kernel is plain Go with one build. Each output element of MulNT
// and MulNN accumulates in one fixed order that does not depend on the
// batch: row i of a product is the same bits whether row i arrives alone
// or among many, which is what lets the surrogate answer a batch exactly
// as it answers each of its rows. MulTNAcc adds its per-row terms in row
// order, which is what lets a minibatch train exactly as its rows would
// one at a time.
//
// Matrices are stored row-major in a flat slice. The package favors clarity
// and zero allocations on hot paths (all kernels write into caller-provided
// destinations) over generality; it is the compute substrate for
// internal/nn, which in turn is the substrate for the paper's differentiable
// surrogate and the DDPG reinforcement-learning baseline.
package mat

import "fmt"

// Dense is a row-major rows x cols matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense allocates a zeroed rows x cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (r, c).
func (m *Dense) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Row returns a view (not a copy) of row r.
func (m *Dense) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element of m to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Scale multiplies every element of m by s.
func (m *Dense) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaled adds s*other to m element-wise. Panics on shape mismatch.
func (m *Dense) AddScaled(s float64, other *Dense) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("mat: AddScaled shape mismatch %dx%d vs %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
	for i, v := range other.Data {
		m.Data[i] += s * v
	}
}

// MulNT computes dst = a * transpose(b), i.e. dst[i][j] = dot(a row i,
// b row j). dst must be a.Rows x b.Rows and a.Cols must equal b.Cols; dst
// must not alias a or b.
//
// This is the forward pass of a layer: with a holding a batch of input
// rows and b a weight matrix, each dst element is one dot product
// accumulated over the columns in ascending order from zero, so row i of
// dst does not depend on the other rows of a (see gemm.go for the
// register-blocked kernel).
func MulNT(dst, a, b *Dense) {
	if dst.Rows != a.Rows || dst.Cols != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulNT shapes dst=%dx%d a=%dx%d b=%dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mulNT(dst, a, b)
}

// MulNN computes dst = a * b. dst must be a.Rows x b.Cols and a.Cols must
// equal b.Rows; dst must not alias a or b.
//
// This is the backward pass of a layer: with a holding a batch of
// backpropagated error rows and b a weight matrix, each output row is
// zeroed and then accumulates a[i][s] * (row s of b) over s in ascending
// order, skipping a zero coefficient, so row i of dst does not depend on
// the other rows of a (see gemm.go).
func MulNN(dst, a, b *Dense) {
	if dst.Rows != a.Rows || dst.Cols != b.Cols || a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulNN shapes dst=%dx%d a=%dx%d b=%dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mulNN(dst, a, b)
}

// AddToRows adds v to every row of m (broadcast bias add). v must have
// length m.Cols.
func AddToRows(m *Dense, v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: AddToRows m=%dx%d v=%d", m.Rows, m.Cols, len(v)))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c, b := range v {
			row[c] += b
		}
	}
}

// MulTNAcc accumulates dst += transpose(a) * b, i.e. dst[r][c] +=
// sum over rows s of a[s][r]*b[s][c]. dst must be a.Cols x b.Cols and
// a.Rows must equal b.Rows; dst must not alias a or b.
//
// This is the batched weight gradient: with a holding a batch of
// backpropagated error rows and b the layer inputs, it adds each row's
// rank-1 term to dst in ascending row order and skips a zero coefficient
// a[s][r], so every element of dst receives exactly the additions of the
// per-sample loop dst[r][c] += a[s][r]*b[s][c], s = 0, 1, ..., in the
// same order (see gemm.go).
func MulTNAcc(dst, a, b *Dense) {
	if dst.Rows != a.Cols || dst.Cols != b.Cols || a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulTNAcc shapes dst=%dx%d a=%dx%d b=%dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mulTNAcc(dst, a, b)
}

// AddVec computes dst[i] += src[i]. Panics on length mismatch.
func AddVec(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mat: AddVec lengths %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] += v
	}
}

// AddScaledVec computes dst[i] += s*src[i]. Panics on length mismatch.
func AddScaledVec(dst []float64, s float64, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mat: AddScaledVec lengths %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] += s * v
	}
}

// ScaleVec multiplies every element of v by s.
func ScaleVec(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}
