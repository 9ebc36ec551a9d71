package workload_test

// Registry-wide generality properties: every registered workload — and
// stress specs beyond the registry (5-tensor contractions, nested halos) —
// must flow through the whole pipeline: valid random problems, a
// constructible map space, member random mappings, and evaluable costs.

import (
	"math/rand"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/oracle"
	_ "mindmappings/internal/timeloop" // register the timeloop and roofline backends
	"mindmappings/internal/workload"
)

func TestEveryRegisteredWorkloadRandomProblemsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, name := range loopnest.AlgorithmNames() {
		algo, err := loopnest.AlgorithmByName(name)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for i := 0; i < 50; i++ {
			p := algo.RandomProblem(rng)
			if err := p.Validate(); err != nil {
				t.Fatalf("%s: random problem invalid: %v", name, err)
			}
			seen[p.String()] = true
		}
		if len(seen) < 5 {
			t.Errorf("%s: only %d distinct problems in 50 draws", name, len(seen))
		}
	}
}

// smallProblem builds a buffer-friendly instance (smallest sample value
// per dimension) so map spaces construct under the default accelerator.
func smallProblem(t *testing.T, algo *loopnest.Algorithm) loopnest.Problem {
	t.Helper()
	shape := make([]int, algo.NumDims())
	for d := range shape {
		shape[d] = algo.SampleSpace[d][0]
	}
	p, err := algo.NewProblem(algo.Name+"-small", shape)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEveryRegisteredWorkloadMapSpaceAndCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, name := range loopnest.AlgorithmNames() {
		algo, err := loopnest.AlgorithmByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prob := smallProblem(t, algo)
		a := arch.Default(len(algo.Tensors) - 1)
		space, err := mapspace.New(a, prob)
		if err != nil {
			t.Fatalf("%s: map space: %v", name, err)
		}
		model, err := costmodel.New("", a, prob)
		if err != nil {
			t.Fatalf("%s: cost model: %v", name, err)
		}
		bound, err := oracle.Compute(a, prob)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		for i := 0; i < 25; i++ {
			m := space.Random(rng)
			if err := space.IsMember(&m); err != nil {
				t.Fatalf("%s: random mapping not a member: %v", name, err)
			}
			cost, err := costmodel.Evaluate(nil, model, &m)
			if err != nil {
				t.Fatalf("%s: evaluate: %v", name, err)
			}
			if !(cost.EDP > 0) || !(cost.TotalEnergyPJ > 0) || !(cost.Cycles > 0) {
				t.Fatalf("%s: degenerate cost %+v", name, cost)
			}
			if norm := bound.NormalizeEDP(cost.EDP); norm < 1 {
				t.Fatalf("%s: mapping beats the algorithmic minimum (%v)", name, norm)
			}
			// Projection (the paper's getProjection) must also hold.
			proj := space.Project(m)
			if err := space.IsMember(&proj); err != nil {
				t.Fatalf("%s: projection not a member: %v", name, err)
			}
		}
	}
}

// TestFiveTensorContractionGenerality pins the layer's headline claim: a
// spec with more tensors than any built-in (4 inputs + output, a 4-operand
// datapath) still flows end to end with no per-algorithm code.
func TestFiveTensorContractionGenerality(t *testing.T) {
	algo, err := workload.Compile(workload.Spec{
		Name: "four-way-contraction",
		Expr: "O[i,j] += A[i,k] * B[k,j] * C[i,m] * D[m,j]",
		SampleSpace: map[string][]int{
			"i": {16, 32}, "j": {16, 32}, "k": {16, 32}, "m": {16, 32},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(algo.Tensors) != 5 || algo.OperandsPerMAC != 4 {
		t.Fatalf("tensors=%d operands=%d", len(algo.Tensors), algo.OperandsPerMAC)
	}
	prob, err := algo.NewProblem("c", []int{16, 16, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Default(4)
	space, err := mapspace.New(a, prob)
	if err != nil {
		t.Fatal(err)
	}
	model, err := costmodel.New("", a, prob)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 25; i++ {
		m := space.Random(rng)
		if err := space.IsMember(&m); err != nil {
			t.Fatalf("random mapping invalid: %v", err)
		}
		if _, err := costmodel.Evaluate(nil, model, &m); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNestedHaloGenerality: a 2-D halo with a 3-way window term.
func TestNestedHaloGenerality(t *testing.T) {
	algo, err := workload.Compile(workload.Spec{
		Name: "dilated-conv1d",
		Expr: "O[x] += F[r,s] * I[x+r+s]",
		SampleSpace: map[string][]int{
			"x": {64, 128}, "r": {3, 5}, "s": {2, 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := algo.NewProblem("d", []int{64, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Default(2)
	space, err := mapspace.New(a, prob)
	if err != nil {
		t.Fatal(err)
	}
	// Full-problem footprint of I is x+r+s-2 = 67.
	if fp := algo.Tensors[1].Footprint(prob.Shape); fp != 67 {
		t.Fatalf("I footprint = %d, want 67", fp)
	}
	model, err := costmodel.New("", a, prob)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 25; i++ {
		m := space.Random(rng)
		if err := space.IsMember(&m); err != nil {
			t.Fatalf("random mapping invalid: %v", err)
		}
		if _, err := costmodel.Evaluate(nil, model, &m); err != nil {
			t.Fatal(err)
		}
	}
}
