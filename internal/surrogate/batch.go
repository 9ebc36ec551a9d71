package surrogate

import (
	"errors"
	"fmt"

	"mindmappings/internal/mat"
	"mindmappings/internal/nn"
)

// Every surrogate query is a batch: PredictBatch and GradientBatch
// evaluate the MLP with batch GEMM kernels that stream each weight matrix
// through the cache once per row block, and a single query is a 1-row
// batch. Each row's result is bit-identical to the same row queried alone
// (the kernels accumulate every output element in an order that does not
// depend on the batch), so searchers may group queries however they like
// (and the search layer's determinism tests prove it).

// maxBatchRows bounds the internal chunk size so arbitrarily large
// candidate sets don't balloon the batch scratch buffers; chunking does
// not change results.
const maxBatchRows = 32

// batchScratch bundles the per-call scratch of one batched query: a
// network workspace (whose batch buffers grow to the chunk size) plus the
// whitened-input and output-gradient staging matrices and the per-row
// z-space output captures.
type batchScratch struct {
	ws   *nn.Workspace
	x    *mat.Dense
	dOut *mat.Dense
	eZ   []float64 // captured z-space outputs, energy/total (or direct) index
	cZ   []float64 // captured z-space outputs, cycles index
}

// getBatchScratch takes batch scratch from the pool, growing its staging
// matrices to hold rows chunk rows.
func (s *Surrogate) getBatchScratch(rows int) *batchScratch {
	bs, ok := s.batchPool.Get().(*batchScratch)
	if !ok {
		bs = &batchScratch{ws: s.Net.NewWorkspace()}
	}
	if bs.x == nil || bs.x.Rows < rows {
		bs.x = mat.NewDense(rows, s.Net.InDim())
		bs.dOut = mat.NewDense(rows, s.Net.OutDim())
		bs.eZ = make([]float64, rows)
		bs.cZ = make([]float64, rows)
	}
	return bs
}

func (s *Surrogate) putBatchScratch(bs *batchScratch) { s.batchPool.Put(bs) }

// checkBatchArgs validates a batched query against the surrogate's mode
// and input width and returns a value buffer of the right length (dst
// reused when it has the capacity).
func (s *Surrogate) checkBatchArgs(vecs [][]float64, eExp, dExp float64, dst []float64) ([]float64, error) {
	if !(eExp == 1 && dExp == 1) && s.Mode != OutputMetaStats {
		return nil, errors.New("surrogate: non-EDP objectives need the meta-statistics representation")
	}
	in := s.Net.InDim()
	for i, v := range vecs {
		if len(v) != in {
			return nil, fmt.Errorf("surrogate: batch input %d has length %d, want %d", i, len(v), in)
		}
	}
	if cap(dst) >= len(vecs) {
		return dst[:len(vecs)], nil
	}
	return make([]float64, len(vecs)), nil
}

// whitenChunk stages vecs[lo:hi] into bs.x, z-scoring each coordinate
// exactly as InNorm.Apply does.
func (s *Surrogate) whitenChunk(bs *batchScratch, vecs [][]float64, lo, hi int) mat.Dense {
	in := s.Net.InDim()
	x := mat.Dense{Rows: hi - lo, Cols: in, Data: bs.x.Data[:(hi-lo)*in]}
	norm := s.InNorm
	for r := lo; r < hi; r++ {
		row := x.Data[(r-lo)*in : (r-lo+1)*in]
		for j, v := range vecs[r] {
			row[j] = (v - norm.Mean[j]) / norm.Std[j]
		}
	}
	return x
}

// PredictBatch predicts the designer objective energy^eExp x delay^dExp
// for a batch of raw encoded mapping vectors in one set of GEMM passes.
// (1,1) is EDP and works in both output modes; other exponent pairs need
// the meta-statistics representation (see valueFromZ). The result for
// vecs[i] is bit-identical to a 1-row call on vecs[i]. dst is reused for
// the return value when it has sufficient capacity; pass nil to allocate.
// Safe for concurrent use.
func (s *Surrogate) PredictBatch(vecs [][]float64, eExp, dExp float64, dst []float64) ([]float64, error) {
	vals, err := s.checkBatchArgs(vecs, eExp, dExp, dst)
	if err != nil {
		return nil, err
	}
	if len(vecs) == 0 {
		return vals, nil
	}
	chunk := len(vecs)
	if chunk > maxBatchRows {
		chunk = maxBatchRows
	}
	bs := s.getBatchScratch(chunk)
	defer s.putBatchScratch(bs)
	totalIdx, _, cyclesIdx := metaIndices(s.NumTensors)
	for lo := 0; lo < len(vecs); lo += chunk {
		hi := lo + chunk
		if hi > len(vecs) {
			hi = len(vecs)
		}
		x := s.whitenChunk(bs, vecs, lo, hi)
		out := s.Net.ForwardBatch(bs.ws, &x)
		for r := 0; r < out.Rows; r++ {
			var eZ, cZ float64
			if s.Mode == OutputDirectEDP {
				eZ = out.At(r, 0)
			} else {
				eZ, cZ = out.At(r, totalIdx), out.At(r, cyclesIdx)
			}
			vals[lo+r] = s.valueFromZ(eZ, cZ, eExp, dExp)
		}
	}
	return vals, nil
}

// GradientBatch computes, for each raw encoded mapping vector, the
// predicted objective energy^eExp x delay^dExp and its gradient with
// respect to the raw vector — the ∇f* that drives Mind Mappings'
// gradient search, one row per descent step. Each row's results are
// bit-identical to a 1-row call on that row.
// vals and grads are reused when correctly sized (grads[i] must have
// length InDim or be nil); pass nil to allocate. Safe for concurrent use.
func (s *Surrogate) GradientBatch(vecs [][]float64, eExp, dExp float64, vals []float64, grads [][]float64) ([]float64, [][]float64, error) {
	vals, err := s.checkBatchArgs(vecs, eExp, dExp, vals)
	if err != nil {
		return nil, nil, err
	}
	in := s.Net.InDim()
	if cap(grads) >= len(vecs) {
		grads = grads[:len(vecs)]
	} else {
		grads = make([][]float64, len(vecs))
	}
	for i := range grads {
		if len(grads[i]) != in {
			grads[i] = make([]float64, in)
		}
	}
	if len(vecs) == 0 {
		return vals, grads, nil
	}
	chunk := len(vecs)
	if chunk > maxBatchRows {
		chunk = maxBatchRows
	}
	bs := s.getBatchScratch(chunk)
	defer s.putBatchScratch(bs)
	for lo := 0; lo < len(vecs); lo += chunk {
		hi := lo + chunk
		if hi > len(vecs) {
			hi = len(vecs)
		}
		if err := s.gradientChunk(bs, vecs, lo, hi, eExp, dExp, vals, grads); err != nil {
			return nil, nil, err
		}
	}
	return vals, grads, nil
}

// gradientChunk runs one forward+backward chunk of GradientBatch.
func (s *Surrogate) gradientChunk(bs *batchScratch, vecs [][]float64, lo, hi int, eExp, dExp float64, vals []float64, grads [][]float64) error {
	b := hi - lo
	x := s.whitenChunk(bs, vecs, lo, hi)
	out := s.Net.ForwardBatch(bs.ws, &x)

	// Capture the z-space outputs the value and output-gradient formulas
	// need before the backward pass overwrites the forward buffers.
	var totalIdx, cyclesIdx int
	if s.Mode == OutputMetaStats {
		totalIdx, _, cyclesIdx = metaIndices(s.NumTensors)
	}
	for r := 0; r < b; r++ {
		if s.Mode == OutputDirectEDP {
			bs.eZ[r] = out.At(r, 0)
		} else {
			bs.eZ[r] = out.At(r, totalIdx)
			bs.cZ[r] = out.At(r, cyclesIdx)
		}
	}

	// Build dOut row by row through the per-row formulas (rowValueAndDOut).
	outDim := s.Net.OutDim()
	dOut := mat.Dense{Rows: b, Cols: outDim, Data: bs.dOut.Data[:b*outDim]}
	for i := range dOut.Data {
		dOut.Data[i] = 0
	}
	for r := 0; r < b; r++ {
		vals[lo+r] = s.rowValueAndDOut(bs.eZ[r], bs.cZ[r], eExp, dExp, dOut.Data[r*outDim:(r+1)*outDim])
	}

	// The forward pass above is still resident in the workspace, so
	// backpropagate through it directly.
	gradWhite := s.Net.BackwardInputBatch(bs.ws, &dOut)
	inDim := s.Net.InDim()
	for r := 0; r < b; r++ {
		gw := gradWhite.Data[r*inDim : (r+1)*inDim]
		g := grads[lo+r]
		for j, v := range gw {
			g[j] = v / s.InNorm.Std[j]
		}
	}
	return nil
}
