package nn

import (
	"fmt"

	"mindmappings/internal/mat"
)

// Every forward and backward pass runs on a batch of rows; a single query
// is a 1-row batch. The Workspace's buffers are grown lazily to the largest
// batch seen and reused thereafter, so steady-state batched inference and
// training allocate nothing.
//
// The kernels (mat.MulNT / mat.MulNN) accumulate each output element in an
// order that does not depend on the batch, so ForwardBatch and
// BackwardInputBatch give every row the same bits it gets in a 1-row batch
// — the property the search layer's determinism tests pin.
// BackwardBatch's weight gradients (mat.MulTNAcc) add the rows' terms in
// row order, so a minibatch trains exactly as its rows would one at a time
// (TestGoldenTrainDigests).

// ensureBatch grows ws's batch buffers to hold at least b rows for net n.
func (ws *Workspace) ensureBatch(n *MLP, b int) {
	if ws.batchCap >= b {
		return
	}
	maxW := 0
	for _, s := range n.Sizes {
		if s > maxW {
			maxW = s
		}
	}
	ws.actsB = ws.actsB[:0]
	ws.preB = ws.preB[:0]
	ws.deltaB = ws.deltaB[:0]
	ws.actsB = append(ws.actsB, mat.NewDense(b, n.Sizes[0]))
	for _, l := range n.Layers {
		ws.preB = append(ws.preB, mat.NewDense(b, l.Out()))
		ws.actsB = append(ws.actsB, mat.NewDense(b, l.Out()))
		ws.deltaB = append(ws.deltaB, mat.NewDense(b, l.Out()))
	}
	ws.derivB = mat.NewDense(b, maxW)
	ws.inGradB = mat.NewDense(b, n.Sizes[0])
	ws.batchCap = b
}

// view returns the leading b-row window of a batch buffer as a value
// matrix sharing the buffer's storage (rows are contiguous, so no copy).
func view(m *mat.Dense, b int) mat.Dense {
	return mat.Dense{Rows: b, Cols: m.Cols, Data: m.Data[:b*m.Cols]}
}

// ForwardBatch runs the network on a batch of input rows (x is batch x
// InDim) and returns the batch x OutDim output matrix. The returned matrix
// shares storage with ws and is overwritten by the next batched call on
// the same workspace; copy rows that must persist. Row i of the result is
// bit-identical to ForwardBatch on row i alone.
func (n *MLP) ForwardBatch(ws *Workspace, x *mat.Dense) mat.Dense {
	if x.Cols != n.InDim() {
		panic(fmt.Sprintf("nn: ForwardBatch input width %d, want %d", x.Cols, n.InDim()))
	}
	b := x.Rows
	ws.ensureBatch(n, b)
	ws.lastBatch = b
	a0 := view(ws.actsB[0], b)
	copy(a0.Data, x.Data[:b*x.Cols])
	last := len(n.Layers) - 1
	for i, l := range n.Layers {
		pre := view(ws.preB[i], b)
		act := view(ws.actsB[i+1], b)
		in := view(ws.actsB[i], b)
		mat.MulNT(&pre, &in, l.W)
		mat.AddToRows(&pre, l.B)
		if i == last {
			copy(act.Data, pre.Data) // linear output head
		} else {
			relu(act.Data, pre.Data)
		}
	}
	return view(ws.actsB[len(ws.actsB)-1], b)
}

// BackwardInputBatch backpropagates dOut (batch x OutDim, row i the
// gradient of a scalar_i with respect to output row i) through the forward
// pass most recently run by ForwardBatch on ws, skipping
// parameter-gradient accumulation, and returns the batch x InDim gradients
// d(scalar_i)/d(input row i), owned by ws and overwritten by the next
// batched call. This is the Phase-2 primitive: with the surrogate frozen,
// it yields the search direction ∂f*/∂m (paper §4.2). dOut.Rows must match
// that forward batch.
func (n *MLP) BackwardInputBatch(ws *Workspace, dOut *mat.Dense) mat.Dense {
	n.backwardBatch(ws, dOut, nil)
	return view(ws.inGradB, dOut.Rows)
}

// BackwardBatch backpropagates dOut (batch x OutDim, row i the loss
// gradient for output row i) through the forward pass most recently run
// by ForwardBatch on ws and accumulates the parameter gradients of the
// whole batch into g. It computes no input gradient. Every gradient
// element receives its rows' terms in ascending row order, the additions
// a per-row backward pass would make, so training on a batch is
// bit-identical to training on its rows one at a time.
func (n *MLP) BackwardBatch(ws *Workspace, dOut *mat.Dense, g *Grads) {
	n.backwardBatch(ws, dOut, g)
}

// backwardBatch is the one batched backward pass. With g nil it carries
// the error down to the input (BackwardInputBatch); otherwise it
// accumulates parameter gradients into g and stops at the first layer.
func (n *MLP) backwardBatch(ws *Workspace, dOut *mat.Dense, g *Grads) {
	if dOut.Cols != n.OutDim() {
		panic(fmt.Sprintf("nn: backward dOut width %d, want %d", dOut.Cols, n.OutDim()))
	}
	if dOut.Rows != ws.lastBatch {
		panic(fmt.Sprintf("nn: backward %d dOut rows, forward batch was %d", dOut.Rows, ws.lastBatch))
	}
	b := dOut.Rows
	last := len(n.Layers) - 1
	dLast := view(ws.deltaB[last], b)
	copy(dLast.Data, dOut.Data[:b*dOut.Cols]) // output layer is linear
	for i := last; i >= 0; i-- {
		l := n.Layers[i]
		delta := view(ws.deltaB[i], b)
		if g != nil {
			in := view(ws.actsB[i], b)
			mat.MulTNAcc(g.W[i], &delta, &in)
			for r := 0; r < b; r++ {
				mat.AddVec(g.B[i], delta.Row(r))
			}
		}
		if i == 0 {
			if g == nil {
				inGrad := view(ws.inGradB, b)
				mat.MulNN(&inGrad, &delta, l.W)
			}
			return
		}
		// Propagate into layer i-1's output, then multiply by its ReLU
		// derivative element-wise over the contiguous b-row window.
		down := view(ws.deltaB[i-1], b)
		mat.MulNN(&down, &delta, l.W)
		w := l.In()
		derivBuf := ws.derivB.Data[:b*w]
		reluDeriv(derivBuf, ws.preB[i-1].Data[:b*w])
		for j := range down.Data {
			down.Data[j] *= derivBuf[j]
		}
	}
}
