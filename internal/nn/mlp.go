// Package nn is a from-scratch neural-network library built for the Mind
// Mappings reproduction. It provides multi-layer perceptrons with ReLU
// hidden layers and backpropagation, the three regression losses the paper
// compares (MSE, MAE, Huber), SGD with momentum plus step learning-rate
// decay (the paper's training recipe, §5.5; Train always uses it) and Adam
// (used by the DDPG baseline), mini-batch training with train/test loss
// histories (Figure 7a), and — critically for Phase 2 — gradients of a
// scalar function of the network output with respect to the network
// *input*, which is what turns the trained surrogate into a search
// direction generator.
//
// Training runs on the batch kernels: Train and the DDPG baseline push
// each minibatch through ForwardBatch and BackwardBatch as one matrix, and
// BackwardBatch adds each row's weight-gradient term in row order
// (mat.MulTNAcc), so a minibatch trains bit-identically to its rows taken
// one at a time. Forward and InputGradient are the one-row forms the
// surrogate's scalar queries and the bit-identity tests use.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"mindmappings/internal/mat"
)

// DenseLayer is a fully connected layer computing W·x + b; hidden layers
// apply ReLU to the result.
type DenseLayer struct {
	W *mat.Dense // out x in
	B []float64  // out
}

// In returns the layer's input width.
func (l *DenseLayer) In() int { return l.W.Cols }

// Out returns the layer's output width.
func (l *DenseLayer) Out() int { return l.W.Rows }

// MLP is a multi-layer perceptron with ReLU hidden layers and a linear
// output layer (regression head).
type MLP struct {
	Sizes  []int // layer widths including input and output
	Layers []*DenseLayer
}

// NewMLP constructs an MLP with the given layer widths (at least input and
// output), initializing weights with He-scaled Gaussians from rng. Biases
// start at zero.
func NewMLP(sizes []int, rng *rand.Rand) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("nn: MLP needs >= 2 layer sizes, got %v", sizes)
	}
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("nn: layer %d has non-positive width %d", i, s)
		}
	}
	net := &MLP{Sizes: append([]int(nil), sizes...)}
	for i := 0; i+1 < len(sizes); i++ {
		layer := &DenseLayer{
			W: mat.NewDense(sizes[i+1], sizes[i]),
			B: make([]float64, sizes[i+1]),
		}
		std := math.Sqrt(2 / float64(sizes[i]))
		for j := range layer.W.Data {
			layer.W.Data[j] = rng.NormFloat64() * std
		}
		net.Layers = append(net.Layers, layer)
	}
	return net, nil
}

// InDim returns the input width.
func (n *MLP) InDim() int { return n.Sizes[0] }

// OutDim returns the output width.
func (n *MLP) OutDim() int { return n.Sizes[len(n.Sizes)-1] }

// NumParams returns the total number of trainable scalars.
func (n *MLP) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		total += len(l.W.Data) + len(l.B)
	}
	return total
}

// Clone returns a deep copy of the network.
func (n *MLP) Clone() *MLP {
	out := &MLP{Sizes: append([]int(nil), n.Sizes...)}
	for _, l := range n.Layers {
		out.Layers = append(out.Layers, &DenseLayer{
			W: l.W.Clone(),
			B: append([]float64(nil), l.B...),
		})
	}
	return out
}

// Workspace holds per-forward-pass scratch buffers so repeated
// forward/backward calls allocate nothing. A Workspace is tied to one MLP
// topology and must not be shared between goroutines.
type Workspace struct {
	pre   [][]float64 // pre[i]: pre-activation of layer i
	acts  [][]float64 // acts[0] = input copy; acts[i+1] = output of layer i
	delta [][]float64 // backprop error per layer output
	deriv []float64   // ReLU derivative scratch

	// Batched counterparts (see batch.go), grown lazily by ensureBatch to
	// the largest batch seen on this workspace.
	batchCap  int
	lastBatch int // rows of the most recent ForwardBatch
	preB      []*mat.Dense
	actsB     []*mat.Dense
	deltaB    []*mat.Dense
	derivB    *mat.Dense
	inGradB   *mat.Dense
}

// NewWorkspace allocates scratch buffers for net.
func (n *MLP) NewWorkspace() *Workspace {
	ws := &Workspace{}
	maxW := 0
	for _, s := range n.Sizes {
		if s > maxW {
			maxW = s
		}
	}
	ws.acts = append(ws.acts, make([]float64, n.Sizes[0]))
	for _, l := range n.Layers {
		ws.pre = append(ws.pre, make([]float64, l.Out()))
		ws.acts = append(ws.acts, make([]float64, l.Out()))
		ws.delta = append(ws.delta, make([]float64, l.Out()))
	}
	ws.deriv = make([]float64, maxW)
	return ws
}

// Forward runs the network on x using ws for scratch space and returns the
// output vector. The returned slice is owned by ws and is overwritten by the
// next Forward call; copy it if it must persist.
func (n *MLP) Forward(ws *Workspace, x []float64) []float64 {
	if len(x) != n.InDim() {
		panic(fmt.Sprintf("nn: Forward input %d, want %d", len(x), n.InDim()))
	}
	copy(ws.acts[0], x)
	last := len(n.Layers) - 1
	for i, l := range n.Layers {
		mat.MatVec(ws.pre[i], l.W, ws.acts[i])
		mat.AddVec(ws.pre[i], l.B)
		if i == last {
			copy(ws.acts[i+1], ws.pre[i]) // linear output head
		} else {
			relu(ws.acts[i+1], ws.pre[i])
		}
	}
	return ws.acts[len(ws.acts)-1]
}

// Grads accumulates parameter gradients with the same shapes as an MLP's
// layers.
type Grads struct {
	W []*mat.Dense
	B [][]float64
}

// NewGrads allocates a zeroed gradient accumulator for net.
func (n *MLP) NewGrads() *Grads {
	g := &Grads{}
	for _, l := range n.Layers {
		g.W = append(g.W, mat.NewDense(l.Out(), l.In()))
		g.B = append(g.B, make([]float64, l.Out()))
	}
	return g
}

// Zero clears all accumulated gradients.
func (g *Grads) Zero() {
	for i := range g.W {
		g.W[i].Zero()
		for j := range g.B[i] {
			g.B[i][j] = 0
		}
	}
}

// Scale multiplies all gradients by s (used to average over a mini-batch).
func (g *Grads) Scale(s float64) {
	for i := range g.W {
		g.W[i].Scale(s)
		mat.ScaleVec(g.B[i], s)
	}
}

// MaxAbs returns the largest absolute gradient component, for clip checks.
func (g *Grads) MaxAbs() float64 {
	m := 0.0
	for i := range g.W {
		for _, v := range g.W[i].Data {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
		for _, v := range g.B[i] {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
	}
	return m
}

// ClipTo scales gradients so no component exceeds limit in magnitude.
func (g *Grads) ClipTo(limit float64) {
	if limit <= 0 {
		return
	}
	m := g.MaxAbs()
	if m > limit {
		g.Scale(limit / m)
	}
}

// InputGradient computes d(scalar)/d(input) where the scalar's gradient with
// respect to the network output is dOut. It runs a forward pass on x and a
// backward pass that carries only the error, accumulating no parameter
// gradients. This is the Phase-2 primitive: with the surrogate frozen, it
// yields the search direction ∂f*/∂m (paper §4.2). The returned slice is
// owned by ws.
func (n *MLP) InputGradient(ws *Workspace, x, dOut []float64) []float64 {
	if len(dOut) != n.OutDim() {
		panic(fmt.Sprintf("nn: InputGradient dOut %d, want %d", len(dOut), n.OutDim()))
	}
	n.Forward(ws, x)
	last := len(n.Layers) - 1
	copy(ws.delta[last], dOut) // output layer is linear
	for i := last; i > 0; i-- {
		// Propagate into layer i-1's output, then through its ReLU.
		down := ws.delta[i-1]
		mat.MatTVec(down, n.Layers[i].W, ws.delta[i])
		derivBuf := ws.deriv[:len(down)]
		reluDeriv(derivBuf, ws.pre[i-1])
		for j := range down {
			down[j] *= derivBuf[j]
		}
	}
	// ws.deriv is free again: it becomes the input gradient.
	in := ws.deriv[:n.InDim()]
	mat.MatTVec(in, n.Layers[0].W, ws.delta[0])
	return in
}
