package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mindmappings/internal/mat"
)

func newTestNet(t *testing.T, sizes []int, seed int64) *MLP {
	t.Helper()
	net, err := NewMLP(sizes, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// rowOf wraps one input row as a 1-row batch (sharing its storage).
func rowOf(x []float64) *mat.Dense {
	return &mat.Dense{Rows: 1, Cols: len(x), Data: x}
}

// kinkMargin returns the smallest |pre-activation| over net's hidden
// layers for the forward pass last run on ws. A finite difference of a
// ReLU net matches its analytic gradient only when no hidden unit crosses
// 0 within the step.
func kinkMargin(net *MLP, ws *Workspace) float64 {
	m := math.Inf(1)
	for _, pre := range ws.preB[:len(net.Layers)-1] {
		for _, v := range pre.Data[:ws.lastBatch*pre.Cols] {
			m = min(m, math.Abs(v))
		}
	}
	return m
}

// drawAwayFromKinks fills x with standard normals from r, redrawing until
// every hidden pre-activation is at least 1e-3 from ReLU's kink (a
// thousand times the finite-difference step). It reports false when 100
// draws all land near a kink.
func drawAwayFromKinks(net *MLP, ws *Workspace, r *rand.Rand, x []float64) bool {
	for try := 0; try < 100; try++ {
		for i := range x {
			x[i] = r.NormFloat64()
		}
		net.ForwardBatch(ws, rowOf(x))
		if kinkMargin(net, ws) >= 1e-3 {
			return true
		}
	}
	return false
}

func TestNewMLPValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewMLP([]int{3}, rng); err == nil {
		t.Fatal("accepted single-layer size list")
	}
	if _, err := NewMLP([]int{3, 0, 2}, rng); err == nil {
		t.Fatal("accepted zero-width layer")
	}
	net, err := NewMLP([]int{3, 4, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if net.InDim() != 3 || net.OutDim() != 2 {
		t.Fatalf("dims %d/%d", net.InDim(), net.OutDim())
	}
	for i, want := range [][2]int{{4, 3}, {2, 4}} {
		l := net.Layers[i]
		if l.W.Rows != want[0] || l.W.Cols != want[1] || len(l.B) != want[0] {
			t.Fatalf("layer %d is %dx%d with %d biases, want %dx%d",
				i, l.W.Rows, l.W.Cols, len(l.B), want[0], want[1])
		}
	}
}

func TestForwardHandComputed(t *testing.T) {
	// Single hidden layer, weights set by hand:
	// h = relu(W1 x + b1), y = W2 h + b2.
	net := newTestNet(t, []int{2, 2, 1}, 1)
	copy(net.Layers[0].W.Data, []float64{1, -1, 2, 0})
	copy(net.Layers[0].B, []float64{0, -1})
	copy(net.Layers[1].W.Data, []float64{3, 0.5})
	copy(net.Layers[1].B, []float64{0.25})

	ws := net.NewWorkspace()
	out := net.ForwardBatch(ws, rowOf([]float64{1, 2}))
	// pre1 = [1*1-1*2, 2*1+0*2] + [0,-1] = [-1, 1]; relu -> [0, 1]
	// y = 3*0 + 0.5*1 + 0.25 = 0.75
	if math.Abs(out.Data[0]-0.75) > 1e-12 {
		t.Fatalf("ForwardBatch = %v, want 0.75", out.Data[0])
	}
}

// TestForwardShapePanics: a 1-row ForwardBatch of the wrong input width
// panics.
func TestForwardShapePanics(t *testing.T) {
	net := newTestNet(t, []int{2, 2, 1}, 1)
	ws := net.NewWorkspace()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input width")
		}
	}()
	net.ForwardBatch(ws, mat.NewDense(1, 3))
}

func TestBackwardShapePanics(t *testing.T) {
	net := newTestNet(t, []int{2, 2, 1}, 1)
	ws := net.NewWorkspace()
	net.ForwardBatch(ws, mat.NewDense(3, 2))
	for i, dOut := range []*mat.Dense{mat.NewDense(3, 2), mat.NewDense(2, 1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic on a %dx%d dOut", i, dOut.Rows, dOut.Cols)
				}
			}()
			net.BackwardBatch(ws, dOut, net.NewGrads())
		}()
	}
}

func TestCloneIsDeep(t *testing.T) {
	net := newTestNet(t, []int{2, 3, 1}, 5)
	clone := net.Clone()
	clone.Layers[0].W.Data[0] += 100
	clone.Layers[0].B[0] += 100
	if net.Layers[0].W.Data[0] == clone.Layers[0].W.Data[0] {
		t.Fatal("Clone shares weights")
	}
	if net.Layers[0].B[0] == clone.Layers[0].B[0] {
		t.Fatal("Clone shares biases")
	}
}

func TestForwardDeterministic(t *testing.T) {
	net := newTestNet(t, []int{4, 8, 3}, 2)
	ws1, ws2 := net.NewWorkspace(), net.NewWorkspace()
	x := &mat.Dense{Rows: 3, Cols: 4, Data: []float64{
		0.1, -0.2, 0.3, 0.4,
		-1, 0, 2, 0.5,
		0.3, 0.3, -0.7, 1,
	}}
	for _, rows := range []int{1, 3} {
		xr := &mat.Dense{Rows: rows, Cols: x.Cols, Data: x.Data[:rows*x.Cols]}
		a := append([]float64(nil), net.ForwardBatch(ws1, xr).Data...)
		b := net.ForwardBatch(ws2, xr).Data
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%d rows: forward must be deterministic across workspaces", rows)
			}
		}
	}
}

// The central property of the whole library: parameter gradients from
// BackwardBatch match finite differences of the summed loss for random
// nets and batches of 1 and several rows. Biases are drawn nonzero so no
// layer sits at the kink by construction, and inputs are drawn away from
// every kink.
func TestBackwardParameterGradientsMatchFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sizes := []int{1 + r.Intn(4), 1 + r.Intn(5), 1 + r.Intn(4), 1 + r.Intn(3)}
		net, err := NewMLP(sizes, r)
		if err != nil {
			return false
		}
		for _, l := range net.Layers {
			for i := range l.B {
				l.B[i] = r.NormFloat64()
			}
		}
		ws := net.NewWorkspace()
		rows := []int{1, 2 + r.Intn(6)}[r.Intn(2)]
		x := mat.NewDense(rows, net.InDim())
		target := mat.NewDense(rows, net.OutDim())
		for k := 0; k < rows; k++ {
			if !drawAwayFromKinks(net, ws, r, x.Row(k)) {
				return false
			}
		}
		for i := range target.Data {
			target.Data[i] = r.NormFloat64()
		}
		loss := MSE{}
		grads := net.NewGrads()
		lossGrad := mat.NewDense(rows, net.OutDim())
		out := net.ForwardBatch(ws, x)
		for k := 0; k < rows; k++ {
			loss.Eval(out.Row(k), target.Row(k), lossGrad.Row(k))
		}
		net.BackwardBatch(ws, lossGrad, grads)

		eval := func() float64 {
			out := net.ForwardBatch(ws, x)
			sum := 0.0
			for k := 0; k < rows; k++ {
				sum += loss.Eval(out.Row(k), target.Row(k), make([]float64, out.Cols))
			}
			return sum
		}
		const h = 1e-6
		// Spot-check a handful of random parameters in each layer.
		for li, l := range net.Layers {
			for probe := 0; probe < 3; probe++ {
				pi := r.Intn(len(l.W.Data))
				orig := l.W.Data[pi]
				l.W.Data[pi] = orig + h
				fp := eval()
				l.W.Data[pi] = orig - h
				fm := eval()
				l.W.Data[pi] = orig
				fd := (fp - fm) / (2 * h)
				if math.Abs(fd-grads.W[li].Data[pi]) > 1e-4*(1+math.Abs(fd)) {
					return false
				}
			}
			bi := r.Intn(len(l.B))
			orig := l.B[bi]
			l.B[bi] = orig + h
			fp := eval()
			l.B[bi] = orig - h
			fm := eval()
			l.B[bi] = orig
			fd := (fp - fm) / (2 * h)
			if math.Abs(fd-grads.B[li][bi]) > 1e-4*(1+math.Abs(fd)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Phase-2 primitive: BackwardInputBatch must match finite differences of
// a scalar function of each output row with respect to its input row, on
// batches of 1, 2 and 3 rows.
func TestInputGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 20; trial++ {
		sizes := []int{3, 6, 5, 2}
		net, err := NewMLP(sizes, rng)
		if err != nil {
			t.Fatal(err)
		}
		ws := net.NewWorkspace()
		rows := 1 + trial%3
		x := mat.NewDense(rows, 3)
		for k := 0; k < rows; k++ {
			if !drawAwayFromKinks(net, ws, rng, x.Row(k)) {
				t.Fatalf("trial %d: no input away from the ReLU kinks", trial)
			}
		}
		// Scalar g(y) = 2*y0 - 3*y1 per row => dOut row = [2, -3].
		dOut := mat.NewDense(rows, 2)
		for k := 0; k < rows; k++ {
			copy(dOut.Row(k), []float64{2, -3})
		}
		net.ForwardBatch(ws, x)
		g := net.BackwardInputBatch(ws, dOut)
		grad := append([]float64(nil), g.Data...)

		scalar := func(k int) float64 {
			out := net.ForwardBatch(ws, x)
			y := out.Row(k)
			return 2*y[0] - 3*y[1]
		}
		const h = 1e-6
		for k := 0; k < rows; k++ {
			row := x.Row(k)
			for i := range row {
				orig := row[i]
				row[i] = orig + h
				fp := scalar(k)
				row[i] = orig - h
				fm := scalar(k)
				row[i] = orig
				fd := (fp - fm) / (2 * h)
				if g := grad[k*len(row)+i]; math.Abs(fd-g) > 1e-4*(1+math.Abs(fd)) {
					t.Fatalf("trial %d row %d input grad[%d]: fd=%v analytic=%v", trial, k, i, fd, g)
				}
			}
		}
	}
}

func TestBackwardAccumulates(t *testing.T) {
	net := newTestNet(t, []int{2, 3, 1}, 7)
	ws := net.NewWorkspace()
	g1 := net.NewGrads()
	x := &mat.Dense{Rows: 1, Cols: 2, Data: []float64{0.5, -0.5}}
	dOut := &mat.Dense{Rows: 1, Cols: 1, Data: []float64{1}}
	net.ForwardBatch(ws, x)
	net.BackwardBatch(ws, dOut, g1)
	first := g1.W[0].At(0, 0)
	net.ForwardBatch(ws, x)
	net.BackwardBatch(ws, dOut, g1)
	if math.Abs(g1.W[0].At(0, 0)-2*first) > 1e-12 {
		t.Fatalf("BackwardBatch must accumulate: %v vs 2*%v", g1.W[0].At(0, 0), first)
	}
}

func TestGradsZeroScaleClip(t *testing.T) {
	net := newTestNet(t, []int{2, 2, 1}, 9)
	g := net.NewGrads()
	g.W[0].Data[0] = 10
	g.B[1][0] = -20
	if g.MaxAbs() != 20 {
		t.Fatalf("MaxAbs = %v", g.MaxAbs())
	}
	g.ClipTo(5)
	if math.Abs(g.MaxAbs()-5) > 1e-12 {
		t.Fatalf("after clip MaxAbs = %v", g.MaxAbs())
	}
	g.Scale(2)
	if math.Abs(g.MaxAbs()-10) > 1e-12 {
		t.Fatalf("after scale MaxAbs = %v", g.MaxAbs())
	}
	g.Zero()
	if g.MaxAbs() != 0 {
		t.Fatal("Zero must clear gradients")
	}
	g.ClipTo(0) // no-op, must not panic
}

func TestWorkspaceReuseNoAlias(t *testing.T) {
	// The output slice is owned by the workspace; verify documented
	// overwrite behavior so callers copy when needed.
	net := newTestNet(t, []int{1, 2, 1}, 11)
	ws := net.NewWorkspace()
	out1 := net.ForwardBatch(ws, rowOf([]float64{1})).Data
	v1 := out1[0]
	out2 := net.ForwardBatch(ws, rowOf([]float64{-1000})).Data
	if &out1[0] != &out2[0] {
		t.Fatal("expected workspace-owned output buffer")
	}
	if out1[0] == v1 && v1 != out2[0] {
		t.Fatal("unexpected aliasing behavior")
	}
}
