package timeloop

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
)

func conv1dSetup(t testing.TB) (*Model, *mapspace.Space) {
	t.Helper()
	p, err := loopnest.NewConv1DProblem("c", 5, 2) // X=4, R=2
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Default(2)
	m, err := New(a, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := mapspace.New(a, p)
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

func cnnSetup(t testing.TB) (*Model, *mapspace.Space) {
	t.Helper()
	p, err := loopnest.NewCNNProblem("cnn", 4, 16, 8, 14, 14, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Default(2)
	m, err := New(a, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := mapspace.New(a, p)
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

func mttkrpSetup(t testing.TB) (*Model, *mapspace.Space) {
	t.Helper()
	p, err := loopnest.NewMTTKRPProblem("m", 64, 128, 256, 128)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Default(3)
	m, err := New(a, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := mapspace.New(a, p)
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

func TestNewRejectsOperandMismatch(t *testing.T) {
	p, err := loopnest.NewCNNProblem("cnn", 1, 2, 2, 4, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(arch.Default(3), p); err == nil {
		t.Fatal("accepted 3-operand arch for 2-operand CNN")
	}
}

func TestNewRejectsInvalidInputs(t *testing.T) {
	p, _ := loopnest.NewConv1DProblem("c", 5, 2)
	bad := arch.Default(2)
	bad.ClockHz = 0
	if _, err := New(bad, p); err == nil {
		t.Fatal("accepted invalid arch")
	}
	if _, err := New(arch.Default(2), loopnest.Problem{}); err == nil {
		t.Fatal("accepted invalid problem")
	}
}

// nest fills in the through products of a loop nest, outermost first, as
// appendTemporalLoops does.
func nest(loops []loop) []loop {
	through := 1.0
	for i := range loops {
		through *= float64(loops[i].count)
		loops[i].through = through
	}
	return loops
}

func TestReuseQOrderSensitivity(t *testing.T) {
	relevant := []bool{true, false} // the tensor depends on dim 0 only
	// Outer relevant (dim0), inner irrelevant (dim1): trailing irrelevant
	// block is reused, Q = 4.
	loops := nest([]loop{{dim: 0, count: 4}, {dim: 1, count: 3}})
	if q := reuseQ(relevant, loops); q != 4 {
		t.Fatalf("Q = %v, want 4", q)
	}
	// Outer irrelevant, inner relevant: irrelevant loop forces refetch,
	// Q = 12.
	loops = nest([]loop{{dim: 1, count: 3}, {dim: 0, count: 4}})
	if q := reuseQ(relevant, loops); q != 12 {
		t.Fatalf("Q = %v, want 12", q)
	}
}

func TestReuseQDegenerateLoops(t *testing.T) {
	relevant := []bool{true, false} // the tensor depends on dim 0 only
	// Trip-count-1 loops are ignored entirely.
	loops := nest([]loop{{dim: 1, count: 1}, {dim: 0, count: 1}, {dim: 1, count: 5}})
	if q := reuseQ(relevant, loops); q != 1 {
		t.Fatalf("Q = %v, want 1 (no relevant loop iterates)", q)
	}
	// A count-1 relevant loop inside a counting irrelevant loop still
	// yields full reuse.
	loops = nest([]loop{{dim: 1, count: 5}, {dim: 0, count: 1}})
	if q := reuseQ(relevant, loops); q != 1 {
		t.Fatalf("Q = %v, want 1", q)
	}
}

func TestReuseQEmpty(t *testing.T) {
	relevant := []bool{true, false} // the tensor depends on dim 0 only
	if q := reuseQ(relevant, nil); q != 1 {
		t.Fatalf("Q on empty nest = %v, want 1", q)
	}
}

func TestMulticastSplit(t *testing.T) {
	relevant := []int{0, 2} // the tensor depends on dims 0 and 2
	total, rel := pesAlong(nil, []int{2, 4, 8}), pesAlong(relevant, []int{2, 4, 8})
	if total != 64 || rel != 16 {
		t.Fatalf("split = %v/%v, want 64/16", total, rel)
	}
}

// Hand-computed access counts for the tiny all-in-L1 1D convolution.
func TestEvaluateHandComputedConv1D(t *testing.T) {
	model, space := conv1dSetup(t) // X=4, R=2, MACs=8
	m := space.Minimal()
	// Put the whole problem in L1: chains {size,1,1,1}.
	m.SetChain(0, mapspace.FactorChain{4, 1, 1, 1})
	m.SetChain(1, mapspace.FactorChain{2, 1, 1, 1})
	m = space.Repair(m)
	if err := space.IsMember(&m); err != nil {
		t.Fatal(err)
	}
	c, err := costmodel.Evaluate(nil, model, &m)
	if err != nil {
		t.Fatal(err)
	}
	// Tensor order: F (2 words), I (5 words), O (4 words); MACs = 8.
	// No outer loop iterates, so every Q is 1 and fills are cold only.
	wantL1 := []float64{8 + 2, 8 + 5, 2*8 + 4}
	wantL2 := []float64{2 + 2, 5 + 5, 4 + 0 + 4}
	wantDRAM := []float64{2, 5, 4}
	for i := range wantL1 {
		if c.Accesses[arch.L1][i] != wantL1[i] {
			t.Errorf("L1 accesses[%d] = %v, want %v", i, c.Accesses[arch.L1][i], wantL1[i])
		}
		if c.Accesses[arch.L2][i] != wantL2[i] {
			t.Errorf("L2 accesses[%d] = %v, want %v", i, c.Accesses[arch.L2][i], wantL2[i])
		}
		if c.Accesses[arch.DRAM][i] != wantDRAM[i] {
			t.Errorf("DRAM accesses[%d] = %v, want %v", i, c.Accesses[arch.DRAM][i], wantDRAM[i])
		}
	}
	if c.ComputeCycles != 8 {
		t.Errorf("compute cycles = %v, want 8 (one PE)", c.ComputeCycles)
	}
	// Energy must be the access-weighted sum plus MAC energy.
	wantEnergy := c.MACEnergyPJ
	for l := arch.L1; l < arch.NumLevels; l++ {
		for tt := range wantL1 {
			wantEnergy += c.EnergyPJ[l][tt]
		}
	}
	if math.Abs(wantEnergy-c.TotalEnergyPJ) > 1e-9 {
		t.Errorf("energy does not sum: %v vs %v", wantEnergy, c.TotalEnergyPJ)
	}
	if c.MACEnergyPJ != 8*model.Arch.MACEnergyPJ {
		t.Errorf("MAC energy = %v", c.MACEnergyPJ)
	}
	if c.EDP <= 0 {
		t.Errorf("EDP = %v", c.EDP)
	}
}

// Tiling the reduction dimension at DRAM with the reduction loop outermost
// must create partial-sum RMW traffic; keeping it innermost must not.
func TestOutputPartialSumTraffic(t *testing.T) {
	model, space := mttkrpSetup(t)
	base := space.Minimal()
	// Tile K (reduction, dim 2) across DRAM: K=256 = 16 L1 x 16 DRAM.
	base.SetChain(2, mapspace.FactorChain{16, 1, 1, 16})
	// Tile I (output dim 0) across DRAM too so there is a relevant loop.
	base.SetChain(0, mapspace.FactorChain{8, 1, 1, 8})
	base = space.Repair(base)

	outIdx := space.Prob.Algo.OutputTensor()

	// Reduction loop (K) outermost at DRAM, I inner: O tiles are revisited,
	// forcing partial-sum writes and RMW reads at DRAM.
	reductionOuter := base.Clone()
	reductionOuter.Order[arch.DRAM] = []int{2, 0, 1, 3} // K, I, J, L
	reductionOuter = space.Repair(reductionOuter)
	cOuter, err := costmodel.Evaluate(nil, model, &reductionOuter)
	if err != nil {
		t.Fatal(err)
	}

	// Reduction loop innermost at DRAM: O accumulates fully before moving.
	reductionInner := base.Clone()
	reductionInner.Order[arch.DRAM] = []int{0, 1, 3, 2} // I, J, L, K
	reductionInner = space.Repair(reductionInner)
	cInner, err := costmodel.Evaluate(nil, model, &reductionInner)
	if err != nil {
		t.Fatal(err)
	}

	if cOuter.Accesses[arch.DRAM][outIdx] <= cInner.Accesses[arch.DRAM][outIdx] {
		t.Fatalf("reduction-outer DRAM output traffic %v should exceed reduction-inner %v",
			cOuter.Accesses[arch.DRAM][outIdx], cInner.Accesses[arch.DRAM][outIdx])
	}
	// With the reduction innermost, output DRAM traffic is exactly one
	// write per output element.
	outSize := float64(space.Prob.Algo.Tensors[outIdx].Footprint(space.Prob.Shape))
	if cInner.Accesses[arch.DRAM][outIdx] != outSize {
		t.Fatalf("reduction-inner output DRAM traffic = %v, want %v",
			cInner.Accesses[arch.DRAM][outIdx], outSize)
	}
}

// Loop order must change input-tensor DRAM traffic (the non-smooth,
// order-sensitive structure of the space).
func TestLoopOrderAffectsTraffic(t *testing.T) {
	model, space := cnnSetup(t)
	m := space.Minimal()
	// Tile K and C at DRAM so both loops iterate.
	m.SetChain(loopnest.CNNDimK, mapspace.FactorChain{4, 1, 1, 4})
	m.SetChain(loopnest.CNNDimC, mapspace.FactorChain{2, 1, 1, 4})
	m = space.Repair(m)

	// Inputs are irrelevant to K only: with the K loop innermost it sits in
	// the trailing reuse block (inputs stay resident while K sweeps), with
	// K outermost every K step refetches the inputs.
	a := m.Clone()
	a.Order[arch.DRAM] = []int{0, 2, 3, 4, 5, 6, 1} // K innermost
	a = space.Repair(a)
	b := m.Clone()
	b.Order[arch.DRAM] = []int{1, 0, 2, 3, 4, 5, 6} // K outermost
	b = space.Repair(b)

	ca, err := costmodel.Evaluate(nil, model, &a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := costmodel.Evaluate(nil, model, &b)
	if err != nil {
		t.Fatal(err)
	}
	inIdx := 1 // Inputs
	if ca.Accesses[arch.DRAM][inIdx] >= cb.Accesses[arch.DRAM][inIdx] {
		t.Fatalf("K-innermost input DRAM traffic %v should be below K-outermost %v",
			ca.Accesses[arch.DRAM][inIdx], cb.Accesses[arch.DRAM][inIdx])
	}
	if ca.EDP == cb.EDP {
		t.Fatal("loop order did not change EDP")
	}
}

// Spatial parallelism along a dimension irrelevant to a tensor must not
// increase that tensor's L2 read traffic (NoC multicast), and must cut
// compute cycles.
func TestSpatialMulticastAndSpeedup(t *testing.T) {
	model, space := cnnSetup(t)
	serial := space.Minimal()
	serial.SetChain(loopnest.CNNDimK, mapspace.FactorChain{1, 1, 1, 16})
	serial = space.Repair(serial)
	cSerial, err := costmodel.Evaluate(nil, model, &serial)
	if err != nil {
		t.Fatal(err)
	}

	parallel := serial.Clone()
	parallel.SetChain(loopnest.CNNDimK, mapspace.FactorChain{1, 16, 1, 1})
	parallel = space.Repair(parallel)
	cParallel, err := costmodel.Evaluate(nil, model, &parallel)
	if err != nil {
		t.Fatal(err)
	}

	if cParallel.ComputeCycles >= cSerial.ComputeCycles {
		t.Fatalf("parallelism did not speed up compute: %v vs %v",
			cParallel.ComputeCycles, cSerial.ComputeCycles)
	}
	// Inputs (tensor 1) are irrelevant to K: 16 PEs share input tiles via
	// multicast, so L2 input reads must not blow up 16x.
	ratio := cParallel.Accesses[arch.L2][1] / cSerial.Accesses[arch.L2][1]
	if ratio > 2.0 {
		t.Fatalf("multicast failed: parallel/serial L2 input reads = %v", ratio)
	}
}

func TestUtilizationBounds(t *testing.T) {
	model, space := cnnSetup(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		m := space.Random(rng)
		c, err := costmodel.Evaluate(nil, model, &m)
		if err != nil {
			t.Fatal(err)
		}
		if c.Utilization <= 0 || c.Utilization > 1+1e-9 {
			t.Fatalf("utilization %v out of (0,1]", c.Utilization)
		}
	}
}

func TestEvaluateArityErrors(t *testing.T) {
	model, space := cnnSetup(t)
	rng := rand.New(rand.NewSource(8))
	m := space.Random(rng)

	short := m.Clone()
	short.Spatial = short.Spatial[:2]
	if _, err := costmodel.Evaluate(nil, model, &short); err == nil {
		t.Fatal("accepted short spatial")
	}
	badOrder := m.Clone()
	badOrder.Order[arch.L2] = nil
	if _, err := costmodel.Evaluate(nil, model, &badOrder); err == nil {
		t.Fatal("accepted missing order")
	}
	badAlloc := m.Clone()
	badAlloc.Alloc[arch.L1] = nil
	if _, err := costmodel.Evaluate(nil, model, &badAlloc); err == nil {
		t.Fatal("accepted missing alloc")
	}
}

// TestRegisteredAsDefaultBackend pins the registry wiring: the reference
// model is reachable by name (and as the default) through costmodel.New.
// Query-latency emulation and eval accounting are the search tracker's;
// their tests live in package search.
func TestRegisteredAsDefaultBackend(t *testing.T) {
	p, err := loopnest.NewConv1DProblem("c", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "timeloop"} {
		ev, err := costmodel.New(name, arch.Default(2), p)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Name() != "timeloop" {
			t.Fatalf("costmodel.New(%q) resolved to %q", name, ev.Name())
		}
		if _, ok := ev.(*Model); !ok {
			t.Fatalf("costmodel.New(%q) returned %T, want *Model", name, ev)
		}
	}
}

func TestMetaStatsShape(t *testing.T) {
	cnnModel, cnnSpace := cnnSetup(t)
	rng := rand.New(rand.NewSource(11))
	m := cnnSpace.Random(rng)
	c, err := costmodel.Evaluate(nil, cnnModel, &m)
	if err != nil {
		t.Fatal(err)
	}
	// Paper §5.5: 12 outputs for CNN.
	if got := len(c.MetaStats()); got != 12 {
		t.Fatalf("CNN meta stats = %d, want 12", got)
	}

	mttModel, mttSpace := mttkrpSetup(t)
	m2 := mttSpace.Random(rng)
	c2, err := costmodel.Evaluate(nil, mttModel, &m2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c2.MetaStats()); got != 15 {
		t.Fatalf("MTTKRP meta stats = %d, want 15", got)
	}
}

func TestAllocEnergyScale(t *testing.T) {
	if allocEnergyScale(0) != 0.75 || allocEnergyScale(1) != 1.25 {
		t.Fatal("alloc energy scale endpoints wrong")
	}
	if allocEnergyScale(0.5) != 1.0 {
		t.Fatal("alloc energy scale midpoint wrong")
	}
}

// Property: every valid mapping yields finite positive EDP, access counts
// are non-negative, DRAM traffic for each tensor covers its full size at
// least once, and energy decomposition sums.
func TestEvaluateInvariantsProperty(t *testing.T) {
	model, space := cnnSetup(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := space.Random(rng)
		c, err := costmodel.Evaluate(nil, model, &m)
		if err != nil {
			return false
		}
		if !(c.EDP > 0) || math.IsInf(c.EDP, 0) || math.IsNaN(c.EDP) {
			return false
		}
		sum := c.MACEnergyPJ
		for l := arch.L1; l < arch.NumLevels; l++ {
			for tt := range c.Accesses[l] {
				if c.Accesses[l][tt] < 0 {
					return false
				}
				sum += c.EnergyPJ[l][tt]
			}
		}
		if math.Abs(sum-c.TotalEnergyPJ) > 1e-6*c.TotalEnergyPJ {
			return false
		}
		for tt := range space.Prob.Algo.Tensors {
			full := float64(space.Prob.Algo.Tensors[tt].Footprint(space.Prob.Shape))
			if c.Accesses[arch.DRAM][tt] < full-1e-6 {
				return false
			}
		}
		return c.Cycles >= c.ComputeCycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEvaluateCNN(b *testing.B) {
	model, space := cnnSetup(b)
	rng := rand.New(rand.NewSource(1))
	m := space.Random(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := costmodel.Evaluate(nil, model, &m); err != nil {
			b.Fatal(err)
		}
	}
}
