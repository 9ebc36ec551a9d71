package timeloop

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
)

// Directed behavioral tests: the cost model must respond to each
// programmable attribute in the physically sensible direction. These pin
// down the mechanisms the search exploits.

// Larger L1 tiles (more on-chip reuse) must not increase DRAM traffic.
func TestBiggerTilesNeverIncreaseDRAMTraffic(t *testing.T) {
	model, space := cnnSetup(t)
	small := space.Minimal()
	// C = 8: all at DRAM vs. all in L1.
	big := small.Clone()
	big.SetChain(loopnest.CNNDimC, mapspace.FactorChain{8, 1, 1, 1})
	big = space.Repair(big)

	cs, err := costmodel.Evaluate(nil, model, &small)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := costmodel.Evaluate(nil, model, &big)
	if err != nil {
		t.Fatal(err)
	}
	for tensor := range space.Prob.Algo.Tensors {
		if cb.Accesses[arch.DRAM][tensor] > cs.Accesses[arch.DRAM][tensor]+1e-6 {
			t.Fatalf("tensor %d: bigger C tile increased DRAM traffic %v -> %v",
				tensor, cs.Accesses[arch.DRAM][tensor], cb.Accesses[arch.DRAM][tensor])
		}
	}
}

// A larger buffer allocation makes each access to that tensor slightly more
// expensive (SRAM energy scales with array size) but never changes traffic.
func TestAllocationAffectsEnergyNotTraffic(t *testing.T) {
	model, space := cnnSetup(t)
	m := space.Minimal()
	lean := m.Clone()
	lean.Alloc[arch.L1] = []float64{0.01, 0.01, 0.01}
	lean = space.Repair(lean)
	fat := lean.Clone()
	fat.Alloc[arch.L1] = []float64{0.9, 0.05, 0.05}

	cl, err := costmodel.Evaluate(nil, model, &lean)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := costmodel.Evaluate(nil, model, &fat)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Accesses[arch.L1][0] != cf.Accesses[arch.L1][0] {
		t.Fatal("allocation changed access counts")
	}
	if cf.EnergyPJ[arch.L1][0] <= cl.EnergyPJ[arch.L1][0] {
		t.Fatalf("bigger allocation should cost more per access: %v vs %v",
			cf.EnergyPJ[arch.L1][0], cl.EnergyPJ[arch.L1][0])
	}
}

// A bandwidth-starved architecture must become memory-bound: shrinking DRAM
// bandwidth leaves energy unchanged but inflates cycles.
func TestBandwidthBound(t *testing.T) {
	prob, err := loopnest.NewCNNProblem("bw", 4, 16, 8, 14, 14, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	fast := arch.Default(2)
	slow := arch.Default(2)
	slow.BandwidthWords[arch.DRAM] = 0.01

	space, err := mapspace.New(fast, prob)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	m := space.Random(rng)

	mf, err := New(fast, prob)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := New(slow, prob)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := costmodel.Evaluate(nil, mf, &m)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := costmodel.Evaluate(nil, ms, &m)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Cycles <= cf.Cycles {
		t.Fatalf("starved DRAM should inflate cycles: %v vs %v", cs.Cycles, cf.Cycles)
	}
	if math.Abs(cs.TotalEnergyPJ-cf.TotalEnergyPJ) > 1e-6*cf.TotalEnergyPJ {
		t.Fatalf("bandwidth must not change energy: %v vs %v", cs.TotalEnergyPJ, cf.TotalEnergyPJ)
	}
	if cs.Utilization >= cf.Utilization {
		t.Fatal("memory-bound run must lower utilization")
	}
}

// The edge accelerator variant must work end to end and, having fewer PEs,
// cannot beat the datacenter part's best-case delay.
func TestEdgeArchWorks(t *testing.T) {
	edge := arch.Edge(2)
	if err := edge.Validate(); err != nil {
		t.Fatal(err)
	}
	if edge.NumPEs >= arch.Default(2).NumPEs {
		t.Fatal("edge variant should have fewer PEs")
	}
	prob, err := loopnest.NewCNNProblem("edge", 4, 16, 8, 14, 14, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	model, err := New(edge, prob)
	if err != nil {
		t.Fatal(err)
	}
	space, err := mapspace.New(edge, prob)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		m := space.Random(rng)
		c, err := costmodel.Evaluate(nil, model, &m)
		if err != nil {
			t.Fatal(err)
		}
		if c.EDP <= 0 {
			t.Fatal("non-positive EDP on edge arch")
		}
		if m.SpatialPEs() > 64 {
			t.Fatalf("sampled %d PEs on a 64-PE part", m.SpatialPEs())
		}
	}
}

// Full spatial unrolling of a 256-wide dimension must reach full PE
// utilization when compute dominates.
func TestFullSpatialUtilization(t *testing.T) {
	prob, err := loopnest.NewMTTKRPProblem("util", 256, 64, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Default(3)
	// Crank all bandwidths so compute dominates (with minimal L1 tiles the
	// fill traffic otherwise saturates the L1 ports — itself a correct
	// behavior, tested above via TestBandwidthBound).
	a.BandwidthWords[arch.L1] = 1e9
	a.BandwidthWords[arch.L2] = 1e9
	a.BandwidthWords[arch.DRAM] = 1e9
	model, err := New(a, prob)
	if err != nil {
		t.Fatal(err)
	}
	space, err := mapspace.New(a, prob)
	if err != nil {
		t.Fatal(err)
	}
	m := space.Minimal()
	m.SetChain(0, mapspace.FactorChain{1, 256, 1, 1}) // I fully spatial
	m = space.Repair(m)
	c, err := costmodel.Evaluate(nil, model, &m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Utilization-1) > 1e-9 {
		t.Fatalf("utilization = %v, want 1 with 256-way parallelism and infinite bandwidth", c.Utilization)
	}
}

// The output tensor's L1 traffic includes the accumulation pattern: exactly
// 2 accesses per MAC plus spills.
func TestOutputAccumulationAccounting(t *testing.T) {
	model, space := conv1dSetup(t) // X=4, R=2, MACs=8
	m := space.Minimal()
	m.SetChain(0, mapspace.FactorChain{4, 1, 1, 1})
	m.SetChain(1, mapspace.FactorChain{2, 1, 1, 1})
	m = space.Repair(m)
	c, err := costmodel.Evaluate(nil, model, &m)
	if err != nil {
		t.Fatal(err)
	}
	outIdx := space.Prob.Algo.OutputTensor()
	// 2 accesses per MAC (read+write accumulate) + 4 spill reads.
	if got := c.Accesses[arch.L1][outIdx]; got != 2*8+4 {
		t.Fatalf("output L1 accesses = %v, want 20", got)
	}
}

func TestCostRender(t *testing.T) {
	model, space := conv1dSetup(t)
	m := space.Minimal()
	c, err := costmodel.Evaluate(nil, model, &m)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	c.Render(&buf, space.Prob.Algo)
	out := buf.String()
	for _, want := range []string{"L1", "L2", "DRAM", "total energy", "cycles", "EDP", "F", "I", "O"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
