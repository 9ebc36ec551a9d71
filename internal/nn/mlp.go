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
// The network has one forward entry point, ForwardBatch, and one backward
// pass behind two entry points: BackwardBatch accumulates parameter
// gradients (Train and the DDPG baseline push each minibatch through it as
// one matrix) and BackwardInputBatch returns the input gradient (the
// surrogate's ∂f*/∂m and DDPG's actor update). A single query is a 1-row
// batch. Every row of a batch gets the same bits it would get alone, and
// BackwardBatch adds each row's weight-gradient term in row order
// (mat.MulTNAcc), so a minibatch trains bit-identically to its rows taken
// one at a time.
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

// Workspace holds the scratch buffers of the batched forward and backward
// passes (see batch.go) so repeated calls allocate nothing. The buffers
// grow lazily, by ensureBatch, to the largest batch seen on the workspace.
// A Workspace is tied to one MLP topology and must not be shared between
// goroutines.
type Workspace struct {
	batchCap  int
	lastBatch int // rows of the most recent ForwardBatch
	preB      []*mat.Dense
	actsB     []*mat.Dense
	deltaB    []*mat.Dense
	derivB    *mat.Dense
	inGradB   *mat.Dense
}

// NewWorkspace returns an empty workspace for net; its buffers are
// allocated by the first batched call.
func (n *MLP) NewWorkspace() *Workspace { return &Workspace{} }

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
