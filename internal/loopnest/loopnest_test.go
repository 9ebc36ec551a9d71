package loopnest_test

import (
	"math"
	"math/rand"
	"testing"

	. "mindmappings/internal/loopnest"
	_ "mindmappings/internal/workload" // register the built-in workloads
)

// algoByName resolves a registered algorithm, failing the test on error.
func algoByName(t *testing.T, name string) *Algorithm {
	t.Helper()
	a, err := AlgorithmByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCNNLayerStructure(t *testing.T) {
	a := algoByName(t, "cnn-layer")
	if a.NumDims() != 7 {
		t.Fatalf("CNN dims = %d, want 7", a.NumDims())
	}
	if len(a.Tensors) != 3 {
		t.Fatalf("CNN tensors = %d, want 3", len(a.Tensors))
	}
	if a.OperandsPerMAC != 2 {
		t.Fatalf("CNN operands = %d, want 2", a.OperandsPerMAC)
	}
	if got := a.OutputTensor(); got != 2 || a.Tensors[got].Name != "Outputs" {
		t.Fatalf("CNN output tensor index %d", got)
	}
}

func TestMTTKRPStructure(t *testing.T) {
	a := algoByName(t, "mttkrp")
	if a.NumDims() != 4 {
		t.Fatalf("MTTKRP dims = %d, want 4", a.NumDims())
	}
	if len(a.Tensors) != 4 {
		t.Fatalf("MTTKRP tensors = %d, want 4", len(a.Tensors))
	}
	if a.OperandsPerMAC != 3 {
		t.Fatalf("MTTKRP operands = %d, want 3", a.OperandsPerMAC)
	}
	if got := a.OutputTensor(); got != 3 || a.Tensors[got].Name != "O" {
		t.Fatalf("MTTKRP output tensor index %d", got)
	}
}

func TestConv1DStructure(t *testing.T) {
	a := algoByName(t, "conv1d")
	if a.NumDims() != 2 || len(a.Tensors) != 3 {
		t.Fatalf("Conv1D dims=%d tensors=%d", a.NumDims(), len(a.Tensors))
	}
}

func TestTensorRelevant(t *testing.T) {
	a := algoByName(t, "cnn-layer")
	rel := a.Relevance()
	w := rel[0] // Weights: K,C,R,S
	if !w[CNNDimK] || w[CNNDimN] || !w[CNNDimR] {
		t.Fatal("Weights relevance wrong")
	}
	o := rel[2] // Outputs: N,K,X,Y
	if o[CNNDimC] || !o[CNNDimX] || o[CNNDimS] {
		t.Fatal("Outputs relevance wrong")
	}
	for i := range a.Tensors {
		n := 0
		for _, r := range rel[i] {
			if r {
				n++
			}
		}
		if len(rel[i]) != a.NumDims() || n != len(a.Tensors[i].Dims) {
			t.Fatalf("tensor %s: %d of %d dims relevant, Dims %v", a.Tensors[i].Name, n, len(rel[i]), a.Tensors[i].Dims)
		}
	}
}

func TestCNNFootprints(t *testing.T) {
	a := algoByName(t, "cnn-layer")
	// tile: N=2,K=3,C=4,X=5,Y=6,R=3,S=3
	tile := []int{2, 3, 4, 5, 6, 3, 3}
	if fp := a.Tensors[0].Footprint(tile); fp != 3*4*3*3 {
		t.Fatalf("Weights footprint = %d", fp)
	}
	// Inputs halo: (X+R-1)(Y+S-1) = 7*8
	if fp := a.Tensors[1].Footprint(tile); fp != 2*4*7*8 {
		t.Fatalf("Inputs footprint = %d", fp)
	}
	if fp := a.Tensors[2].Footprint(tile); fp != 2*3*5*6 {
		t.Fatalf("Outputs footprint = %d", fp)
	}
}

func TestMTTKRPFootprints(t *testing.T) {
	a := algoByName(t, "mttkrp")
	tile := []int{2, 3, 4, 5} // I,J,K,L
	wants := []int64{2 * 4 * 5, 4 * 3, 5 * 3, 2 * 3}
	for i, want := range wants {
		if fp := a.Tensors[i].Footprint(tile); fp != want {
			t.Fatalf("tensor %s footprint = %d, want %d", a.Tensors[i].Name, fp, want)
		}
	}
}

func TestConv1DFootprints(t *testing.T) {
	a := algoByName(t, "conv1d")
	tile := []int{10, 3} // X, R
	if fp := a.Tensors[0].Footprint(tile); fp != 3 {
		t.Fatalf("F footprint = %d", fp)
	}
	if fp := a.Tensors[1].Footprint(tile); fp != 12 {
		t.Fatalf("I footprint = %d (want 10+3-1)", fp)
	}
	if fp := a.Tensors[2].Footprint(tile); fp != 10 {
		t.Fatalf("O footprint = %d", fp)
	}
}

func TestNewCNNProblemOutputDims(t *testing.T) {
	p, err := NewCNNProblem("t", 1, 8, 4, 28, 28, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shape[CNNDimX] != 26 || p.Shape[CNNDimY] != 26 {
		t.Fatalf("X/Y = %d/%d, want 26/26", p.Shape[CNNDimX], p.Shape[CNNDimY])
	}
}

func TestNewCNNProblemRejectsBadShape(t *testing.T) {
	if _, err := NewCNNProblem("bad", 1, 8, 4, 2, 2, 5, 5); err == nil {
		t.Fatal("accepted H < R")
	}
	if _, err := NewCNNProblem("bad", 0, 8, 4, 28, 28, 3, 3); err == nil {
		t.Fatal("accepted N = 0")
	}
}

func TestNewConv1DProblem(t *testing.T) {
	p, err := NewConv1DProblem("c", 128, 9)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shape[Conv1DDimX] != 120 || p.Shape[Conv1DDimR] != 9 {
		t.Fatalf("shape = %v", p.Shape)
	}
}

func TestProblemValidate(t *testing.T) {
	p := Problem{}
	if err := p.Validate(); err == nil {
		t.Fatal("accepted problem without algorithm")
	}
	p = Problem{Algo: algoByName(t, "mttkrp"), Shape: []int{1, 2}}
	if err := p.Validate(); err == nil {
		t.Fatal("accepted wrong-arity shape")
	}
}

func TestMACsAndTotalWords(t *testing.T) {
	p, err := NewMTTKRPProblem("m", 2, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.MACs() != 2*3*4*5 {
		t.Fatalf("MACs = %v", p.MACs())
	}
	want := float64(2*4*5 + 4*3 + 5*3 + 2*3)
	if p.TotalWords() != want {
		t.Fatalf("TotalWords = %v, want %v", p.TotalWords(), want)
	}
}

func TestPID(t *testing.T) {
	p, err := NewMTTKRPProblem("m", 2, 4, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	pid := p.AppendPID(nil)
	for i, want := range []float64{1, 2, 3, 4} {
		if math.Abs(pid[i]-want) > 1e-12 {
			t.Fatalf("PID = %v", pid)
		}
	}
}

func TestProblemString(t *testing.T) {
	p, err := NewMTTKRPProblem("m", 2, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != "m(I=2,J=3,K=4,L=5)" {
		t.Fatalf("String = %q", got)
	}
}

func TestTable1CNNShapes(t *testing.T) {
	probs, err := Table1CNNProblems()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 6 {
		t.Fatalf("%d CNN problems, want 6", len(probs))
	}
	// Pin every shape against Table 1 (N, K, C, X=H-R+1, Y, R, S).
	wants := map[string][]int{
		"ResNet_Conv_3":    {16, 128, 128, 26, 26, 3, 3},
		"ResNet_Conv_4":    {16, 256, 256, 12, 12, 3, 3},
		"Inception_Conv_2": {32, 192, 192, 54, 54, 3, 3},
		"VGG_Conv_2":       {16, 128, 64, 110, 110, 3, 3},
		"AlexNet_Conv_2":   {8, 256, 96, 23, 23, 5, 5},
		"AlexNet_Conv_4":   {8, 384, 384, 11, 11, 3, 3},
	}
	for _, p := range probs {
		want, ok := wants[p.Name]
		if !ok {
			t.Fatalf("unexpected problem %q", p.Name)
		}
		for d := range want {
			if p.Shape[d] != want[d] {
				t.Fatalf("%s shape = %v, want %v", p.Name, p.Shape, want)
			}
		}
	}
}

func TestTable1MTTKRPShapes(t *testing.T) {
	probs, err := Table1MTTKRPProblems()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 2 {
		t.Fatalf("%d MTTKRP problems, want 2", len(probs))
	}
	if got := probs[0].Shape; got[0] != 128 || got[1] != 1024 || got[2] != 4096 || got[3] != 2048 {
		t.Fatalf("MTTKRP_0 shape = %v", got)
	}
	if got := probs[1].Shape; got[0] != 2048 || got[1] != 4096 || got[2] != 1024 || got[3] != 128 {
		t.Fatalf("MTTKRP_1 shape = %v", got)
	}
}

func TestTable1ProblemsAll(t *testing.T) {
	probs, err := Table1Problems()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 8 {
		t.Fatalf("%d problems, want 8", len(probs))
	}
	for _, p := range probs {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
}

func TestRandomProblemValidAndVaried(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, name := range []string{"cnn-layer", "mttkrp", "conv1d"} {
		algo := algoByName(t, name)
		seen := map[string]bool{}
		for i := 0; i < 50; i++ {
			p := algo.RandomProblem(rng)
			if err := p.Validate(); err != nil {
				t.Fatalf("%s random problem invalid: %v", algo.Name, err)
			}
			seen[p.String()] = true
			// Every dim must come from the sample values.
			for d, v := range p.Shape {
				found := false
				for _, cand := range algo.SampleValues()[d] {
					if cand == v {
						found = true
					}
				}
				if !found {
					t.Fatalf("%s dim %d value %d not in sample values", algo.Name, d, v)
				}
			}
		}
		if len(seen) < 10 {
			t.Fatalf("%s: only %d distinct random problems in 50 draws", algo.Name, len(seen))
		}
	}
}

// TestNumSampleProblems counts distinct shapes: a repeated sample value
// adds no problem, an empty dimension leaves none, and a product past
// math.MaxInt saturates.
func TestNumSampleProblems(t *testing.T) {
	wide := make([]int, 1000)
	for i := range wide {
		wide[i] = i + 1
	}
	for _, c := range []struct {
		space [][]int
		want  int
	}{
		{[][]int{{1, 2, 2, 4}, {3, 3}}, 3},
		{[][]int{{1, 2}, {}}, 0},
		{[][]int{wide, wide, wide, wide, wide, wide, wide}, math.MaxInt},
	} {
		if got := (&Algorithm{SampleSpace: c.space}).NumSampleProblems(); got != c.want {
			t.Errorf("NumSampleProblems(%d dims) = %d, want %d", len(c.space), got, c.want)
		}
	}
}

func TestSampleValuesIsCopy(t *testing.T) {
	a := algoByName(t, "cnn-layer")
	vals := a.SampleValues()
	vals[0][0] = -99
	if a.SampleValues()[0][0] == -99 {
		t.Fatal("SampleValues must return a copy")
	}
}
