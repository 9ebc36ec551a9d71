package costmodel_test

import (
	"context"
	"math"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/oracle"
	"mindmappings/internal/stats"
)

func TestNewRooflineValidates(t *testing.T) {
	p, err := loopnest.NewCNNProblem("cnn", 4, 16, 8, 14, 14, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := costmodel.NewRoofline(arch.Default(3), p); err == nil {
		t.Fatal("accepted 3-operand arch for 2-operand CNN")
	}
	bad := arch.Default(2)
	bad.ClockHz = 0
	if _, err := costmodel.NewRoofline(bad, p); err == nil {
		t.Fatal("accepted invalid arch")
	}
	if _, err := costmodel.NewRoofline(arch.Default(2), loopnest.Problem{}); err == nil {
		t.Fatal("accepted invalid problem")
	}
}

func TestRooflineArityErrors(t *testing.T) {
	f := newFixture(t, 20)
	ev := f.backend(t, "roofline")
	ctx := context.Background()
	var ws costmodel.Cost
	short := f.ms[0].Clone()
	short.Spatial = short.Spatial[:2]
	if err := ev.EvaluateInto(ctx, &short, &ws); err == nil {
		t.Fatal("accepted short spatial")
	}
	badAlloc := f.ms[0].Clone()
	badAlloc.Alloc[arch.L1] = nil
	if err := ev.EvaluateInto(ctx, &badAlloc, &ws); err == nil {
		t.Fatal("accepted missing alloc")
	}
}

// TestRooflineOrderInsensitive pins the defining property: the roofline
// model assumes best-case loop-order reuse, so permuting temporal loop
// orders never changes its cost (while the reference model does respond).
func TestRooflineOrderInsensitive(t *testing.T) {
	f := newFixture(t, 21)
	rf := f.backend(t, "roofline")
	ctx := context.Background()
	rng := stats.NewRNG(77)
	var base, perm costmodel.Cost
	for i := range f.ms {
		m := f.ms[i].Clone()
		if err := rf.EvaluateInto(ctx, &m, &base); err != nil {
			t.Fatal(err)
		}
		for l := range m.Order {
			rng.Shuffle(len(m.Order[l]), func(a, b int) {
				m.Order[l][a], m.Order[l][b] = m.Order[l][b], m.Order[l][a]
			})
		}
		if err := rf.EvaluateInto(ctx, &m, &perm); err != nil {
			t.Fatal(err)
		}
		if base.EDP != perm.EDP || base.TotalEnergyPJ != perm.TotalEnergyPJ ||
			base.Cycles != perm.Cycles {
			t.Fatalf("mapping %d: loop-order permutation changed roofline cost: %v vs %v",
				i, base.EDP, perm.EDP)
		}
	}
}

// TestRooflineIsOptimisticVersusOracle closes the loop with oracle.Bound:
// the roofline estimate is mapping-sensitive but never undercuts the
// mapping-independent algorithmic minimum, so normalized roofline EDP
// stays >= 1.
func TestRooflineIsOptimisticVersusOracle(t *testing.T) {
	f := newFixture(t, 22)
	bound, err := oracle.Compute(f.arch, f.prob)
	if err != nil {
		t.Fatal(err)
	}
	rf := f.backend(t, "roofline")
	ctx := context.Background()
	var ws costmodel.Cost
	for i := range f.ms {
		if err := rf.EvaluateInto(ctx, &f.ms[i], &ws); err != nil {
			t.Fatal(err)
		}
		if norm := bound.NormalizeEDP(ws.EDP); norm < 1-1e-9 {
			t.Fatalf("mapping %d: roofline EDP %.3fx undercuts the algorithmic minimum", i, norm)
		}
		if ws.TotalEnergyPJ < bound.MinEnergyPJ-1e-6 {
			t.Fatalf("mapping %d: roofline energy below the minimum energy", i)
		}
		if ws.Cycles < bound.MinCycles-1e-6 {
			t.Fatalf("mapping %d: roofline cycles below the minimum cycles", i)
		}
	}
}

// TestRooflineRespondsToMapping: the model must stay mapping-sensitive
// through its two levers — spatial parallelism (compute roofline and
// multicast split) and halo overheads of small tiles — or search over it
// would be meaningless. (Purely temporal re-tiling of halo-free tensors is
// deliberately cost-neutral: best-case reuse traffic is tile-invariant.)
func TestRooflineRespondsToMapping(t *testing.T) {
	p, err := loopnest.NewConv1DProblem("rf", 1024, 5) // X=1020, R=5
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Default(2)
	space, err := mapspace.New(a, p)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := costmodel.NewRoofline(a, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var cSerial, cSpatial, cTiled costmodel.Cost

	// Keep the filter resident at L1 so input tiles carry their halo.
	serial := space.Minimal()
	serial.SetChain(0, mapspace.FactorChain{1020, 1, 1, 1})
	serial.SetChain(1, mapspace.FactorChain{5, 1, 1, 1})
	serial = space.Repair(serial)
	if err := rf.EvaluateInto(ctx, &serial, &cSerial); err != nil {
		t.Fatal(err)
	}

	// Spatial parallelism must cut compute cycles (the compute roofline).
	spatial := serial.Clone()
	spatial.SetChain(0, mapspace.FactorChain{255, 4, 1, 1})
	spatial = space.Repair(spatial)
	if err := rf.EvaluateInto(ctx, &spatial, &cSpatial); err != nil {
		t.Fatal(err)
	}
	if cSpatial.ComputeCycles >= cSerial.ComputeCycles {
		t.Fatalf("spatial unrolling did not cut compute cycles: %v vs %v",
			cSpatial.ComputeCycles, cSerial.ComputeCycles)
	}

	// Small input tiles pay halo overhead: more input traffic than the
	// resident mapping, even under best-case reuse.
	tiled := serial.Clone()
	tiled.SetChain(0, mapspace.FactorChain{4, 1, 1, 255})
	tiled = space.Repair(tiled)
	if err := rf.EvaluateInto(ctx, &tiled, &cTiled); err != nil {
		t.Fatal(err)
	}
	inIdx := 1 // I
	if cTiled.Accesses[arch.L1][inIdx] <= cSerial.Accesses[arch.L1][inIdx] {
		t.Fatalf("halo-paying tiles did not raise input traffic: %v vs %v",
			cTiled.Accesses[arch.L1][inIdx], cSerial.Accesses[arch.L1][inIdx])
	}
	if cTiled.EDP == cSerial.EDP {
		t.Fatal("roofline EDP blind to halo-paying tiling")
	}
}

// TestRooflineNeverExceedsTimeloopTraffic: element for element, the
// optimistic model's data movement, and its cycles, are bounded by the
// reference model's on the same mapping. Energy, and so EDP, is not: the
// reference model scales SRAM energy by 0.75 to 1.25 with bank allocation
// and Roofline charges the nominal cost, so Roofline's EDP exceeds the
// reference model's on some mappings (ROADMAP item 23). Its EDP is at
// least the algorithmic minimum (TestRooflineIsOptimisticVersusOracle).
func TestRooflineNeverExceedsTimeloopTraffic(t *testing.T) {
	f := newFixture(t, 23)
	rf := f.backend(t, "roofline")
	tl := f.backend(t, "timeloop")
	ctx := context.Background()
	var cr, ctl costmodel.Cost
	for i := range f.ms {
		if err := rf.EvaluateInto(ctx, &f.ms[i], &cr); err != nil {
			t.Fatal(err)
		}
		if err := tl.EvaluateInto(ctx, &f.ms[i], &ctl); err != nil {
			t.Fatal(err)
		}
		for l := range cr.Accesses {
			for tt := range cr.Accesses[l] {
				if cr.Accesses[l][tt] > ctl.Accesses[l][tt]+1e-6 {
					t.Fatalf("mapping %d level %d tensor %d: roofline traffic %v exceeds reference %v",
						i, l, tt, cr.Accesses[l][tt], ctl.Accesses[l][tt])
				}
			}
		}
		if cr.Cycles > ctl.Cycles+1e-6 {
			t.Fatalf("mapping %d: roofline cycles %v exceed reference %v", i, cr.Cycles, ctl.Cycles)
		}
	}
}

// TestRooflineInvariants: finite positive EDP, energy decomposition sums,
// utilization in (0, 1].
func TestRooflineInvariants(t *testing.T) {
	f := newFixture(t, 24)
	rf := f.backend(t, "roofline")
	ctx := context.Background()
	var c costmodel.Cost
	for i := range f.ms {
		if err := rf.EvaluateInto(ctx, &f.ms[i], &c); err != nil {
			t.Fatal(err)
		}
		if !(c.EDP > 0) || math.IsInf(c.EDP, 0) || math.IsNaN(c.EDP) {
			t.Fatalf("EDP = %v", c.EDP)
		}
		if c.Utilization <= 0 || c.Utilization > 1+1e-9 {
			t.Fatalf("utilization %v out of (0,1]", c.Utilization)
		}
		sum := c.MACEnergyPJ
		for l := range c.Accesses {
			for tt := range c.Accesses[l] {
				if c.Accesses[l][tt] < 0 {
					t.Fatal("negative access count")
				}
				sum += c.EnergyPJ[l][tt]
			}
		}
		if math.Abs(sum-c.TotalEnergyPJ) > 1e-6*c.TotalEnergyPJ {
			t.Fatalf("energy does not sum: %v vs %v", sum, c.TotalEnergyPJ)
		}
		if c.Cycles < c.ComputeCycles {
			t.Fatal("cycles below compute bound")
		}
	}
}

// TestRooflineZeroAllocs: the roofline backend inherits the reusable-Cost
// workspace contract.
func TestRooflineZeroAllocs(t *testing.T) {
	f := newFixture(t, 25)
	rf := f.backend(t, "roofline")
	ctx := context.Background()
	var ws costmodel.Cost
	if err := rf.EvaluateInto(ctx, &f.ms[0], &ws); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := rf.EvaluateInto(ctx, &f.ms[i%len(f.ms)], &ws); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state roofline evaluation allocates %.1f per run, want 0", allocs)
	}
}

// Both backends read an operator result's footprints off its block; the
// cost is bit for bit the one computed for the same mapping without a
// block, which the backend's own footprint path costs.
func TestBackendsReadFootprintBlock(t *testing.T) {
	f := newFixture(t, 26)
	ctx := context.Background()
	rng := stats.NewRNG(26)
	for _, name := range []string{"roofline", "timeloop"} {
		ev := f.backend(t, name)
		var got, want costmodel.Cost
		m := f.ms[0].Clone()
		for i := 0; i < 100; i++ {
			f.space.PerturbInto(rng, &f.ms[i%len(f.ms)], &m)
			bare := m
			for l := range bare.Alloc {
				bare.Alloc[l] = append([]float64(nil), m.Alloc[l]...)
			}
			if err := ev.EvaluateInto(ctx, &m, &got); err != nil {
				t.Fatal(err)
			}
			if err := ev.EvaluateInto(ctx, &bare, &want); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.EDP) != math.Float64bits(want.EDP) ||
				math.Float64bits(got.TotalEnergyPJ) != math.Float64bits(want.TotalEnergyPJ) {
				t.Fatalf("%s mapping %d: EDP %v read off the block, %v computed", name, i, got.EDP, want.EDP)
			}
		}
	}
}
