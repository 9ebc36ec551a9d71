package nn

import (
	"math/rand"
	"testing"

	"mindmappings/internal/mat"
)

func batchTestNet(t *testing.T, seed int64) *MLP {
	t.Helper()
	net, err := NewMLP([]int{7, 11, 9, 3}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func randBatch(rng *rand.Rand, rows, cols int) *mat.Dense {
	x := mat.NewDense(rows, cols)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// refForward is the plain-loop reference forward pass on one input row,
// built from the layers' weights: each pre-activation is the bias added to
// a dot product accumulated from zero in ascending column order, and
// hidden layers keep the positive pre-activations. It returns every
// layer's pre-activation; the last is the network output.
func refForward(net *MLP, x []float64) [][]float64 {
	var pres [][]float64
	in := x
	for i, l := range net.Layers {
		pre := make([]float64, l.Out())
		for j := range pre {
			sum := 0.0
			for c, w := range l.W.Row(j) {
				sum += w * in[c]
			}
			pre[j] = sum + l.B[j]
		}
		pres = append(pres, pre)
		if i < len(net.Layers)-1 {
			act := make([]float64, len(pre))
			for j, v := range pre {
				if v > 0 {
					act[j] = v
				}
			}
			in = act
		}
	}
	return pres
}

// refBackwardInput is the plain-loop reference input gradient on one row:
// the error is carried down through each weight matrix as a sum of its
// rows weighted by the error, accumulated in ascending row order with
// zero coefficients skipped, and multiplied by the ReLU derivative (1 or
// 0) of the layer below.
func refBackwardInput(net *MLP, x, dOut []float64) []float64 {
	pres := refForward(net, x)
	delta := append([]float64(nil), dOut...)
	for i := len(net.Layers) - 1; i >= 0; i-- {
		l := net.Layers[i]
		down := make([]float64, l.In())
		for s, ys := range delta {
			if ys == 0 {
				continue
			}
			for c, w := range l.W.Row(s) {
				down[c] += w * ys
			}
		}
		if i > 0 {
			for j, v := range pres[i-1] {
				d := 0.0
				if v > 0 {
					d = 1
				}
				down[j] *= d
			}
		}
		delta = down
	}
	return delta
}

// TestForwardBatchBitIdentical pins the core contract: ForwardBatch row i
// equals the plain-loop reference forward on row i bit-for-bit, across
// batch sizes that exercise both the blocked kernel and its tail, and
// across nets.
func TestForwardBatchBitIdentical(t *testing.T) {
	for _, seed := range []int64{42, 43, 44} {
		net := batchTestNet(t, seed)
		rng := rand.New(rand.NewSource(7))
		wsB := net.NewWorkspace()
		for _, batch := range []int{1, 2, 4, 5, 8, 13} {
			x := randBatch(rng, batch, net.InDim())
			out := net.ForwardBatch(wsB, x)
			for r := 0; r < batch; r++ {
				pres := refForward(net, x.Row(r))
				for j, w := range pres[len(pres)-1] {
					if got := out.At(r, j); got != w {
						t.Fatalf("net %d batch=%d row=%d out[%d]: batch %v != reference %v",
							seed, batch, r, j, got, w)
					}
				}
			}
		}
	}
}

// TestInputGradientBatchBitIdentical does the same for the input gradient
// (ForwardBatch then BackwardInputBatch).
func TestInputGradientBatchBitIdentical(t *testing.T) {
	for _, seed := range []int64{42, 43} {
		net := batchTestNet(t, seed)
		rng := rand.New(rand.NewSource(8))
		wsB := net.NewWorkspace()
		for _, batch := range []int{1, 3, 4, 6, 9} {
			x := randBatch(rng, batch, net.InDim())
			dOut := randBatch(rng, batch, net.OutDim())
			net.ForwardBatch(wsB, x)
			grads := net.BackwardInputBatch(wsB, dOut)
			for r := 0; r < batch; r++ {
				want := refBackwardInput(net, x.Row(r), dOut.Row(r))
				for j, w := range want {
					if got := grads.At(r, j); got != w {
						t.Fatalf("net %d batch=%d row=%d grad[%d]: batch %v != reference %v",
							seed, batch, r, j, got, w)
					}
				}
			}
		}
	}
}

// TestBatchWorkspaceReuse checks that a workspace grown once serves
// smaller and equal batches without reallocating, and that 1-row and
// several-row use of the same workspace do not corrupt each other.
func TestBatchWorkspaceReuse(t *testing.T) {
	net := batchTestNet(t, 42)
	rng := rand.New(rand.NewSource(9))
	ws := net.NewWorkspace()
	big := randBatch(rng, 16, net.InDim())
	net.ForwardBatch(ws, big)
	if ws.batchCap != 16 {
		t.Fatalf("batchCap = %d, want 16", ws.batchCap)
	}
	small := randBatch(rng, 3, net.InDim())
	out := net.ForwardBatch(ws, small)
	if ws.batchCap != 16 {
		t.Fatalf("batchCap regrew to %d", ws.batchCap)
	}
	if out.Rows != 3 || out.Cols != net.OutDim() {
		t.Fatalf("small-batch view is %dx%d", out.Rows, out.Cols)
	}
	// Interleave a 1-row call and confirm a fresh batch result is intact.
	net.ForwardBatch(ws, rowOf(small.Row(0)))
	out = net.ForwardBatch(ws, small)
	check := net.ForwardBatch(net.NewWorkspace(), rowOf(small.Row(1)))
	for j, w := range check.Data {
		if out.At(1, j) != w {
			t.Fatalf("post-interleave row 1 out[%d] = %v, want %v", j, out.At(1, j), w)
		}
	}
}

// TestForwardBatchShapePanics pins input validation.
func TestForwardBatchShapePanics(t *testing.T) {
	net := batchTestNet(t, 42)
	ws := net.NewWorkspace()
	cases := []func(){
		func() { net.ForwardBatch(ws, mat.NewDense(2, net.InDim()+1)) },
		func() {
			net.ForwardBatch(ws, mat.NewDense(2, net.InDim()))
			net.BackwardInputBatch(ws, mat.NewDense(2, net.OutDim()+1))
		},
		func() {
			net.ForwardBatch(ws, mat.NewDense(2, net.InDim()))
			net.BackwardInputBatch(ws, mat.NewDense(3, net.OutDim()))
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// TestForwardBatchSteadyStateAllocFree: after the first (growing) call, a
// batched forward+backward on a warm workspace performs zero heap
// allocations.
func TestForwardBatchSteadyStateAllocFree(t *testing.T) {
	net := batchTestNet(t, 42)
	rng := rand.New(rand.NewSource(10))
	ws := net.NewWorkspace()
	x := randBatch(rng, 8, net.InDim())
	dOut := randBatch(rng, 8, net.OutDim())
	step := func() {
		net.ForwardBatch(ws, x)
		net.BackwardInputBatch(ws, dOut)
	}
	step() // warm up / grow
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("steady-state ForwardBatch+BackwardInputBatch allocates %.1f per run, want 0", allocs)
	}
}

// TestBackwardBatchEqualsRowByRow: the parameter gradients of a batch are
// bit-identical to accumulating its rows one 1-row batch at a time, in
// order, across batch sizes that hit the weight-gradient kernel's 4-row
// block and tail, with a dead hidden unit so zero deltas reach the skip.
func TestBackwardBatchEqualsRowByRow(t *testing.T) {
	net := batchTestNet(t, 45)
	net.Layers[0].B[2] = -1e3
	rng := rand.New(rand.NewSource(12))
	wsB, wsR := net.NewWorkspace(), net.NewWorkspace()
	for _, batch := range []int{1, 3, 4, 7, 9, 16} {
		x := randBatch(rng, batch, net.InDim())
		dOut := randBatch(rng, batch, net.OutDim())
		got, want := net.NewGrads(), net.NewGrads()
		net.ForwardBatch(wsB, x)
		net.BackwardBatch(wsB, dOut, got)
		for r := 0; r < batch; r++ {
			xr := mat.Dense{Rows: 1, Cols: x.Cols, Data: x.Row(r)}
			dr := mat.Dense{Rows: 1, Cols: dOut.Cols, Data: dOut.Row(r)}
			net.ForwardBatch(wsR, &xr)
			net.BackwardBatch(wsR, &dr, want)
		}
		for i := range got.W {
			for j, w := range want.W[i].Data {
				if got.W[i].Data[j] != w {
					t.Fatalf("batch=%d layer %d W[%d]: %v, row by row %v", batch, i, j, got.W[i].Data[j], w)
				}
			}
			for j, w := range want.B[i] {
				if got.B[i][j] != w {
					t.Fatalf("batch=%d layer %d B[%d]: %v, row by row %v", batch, i, j, got.B[i][j], w)
				}
			}
		}
	}
}
