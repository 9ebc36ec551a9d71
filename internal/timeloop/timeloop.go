// Package timeloop is the reference cost-model backend: a from-scratch
// analytical model for flexible tensor accelerators in the style of
// Timeloop (Parashar et al., ISPASS 2019), which the paper uses as its
// reference cost function f (§5.1.2: "We model the programmable hardware
// accelerator using Timeloop, which uses an analytical cost model to
// provide a high-fidelity cost estimation for hardware accelerators that
// implement affine loopnests").
//
// Given an accelerator specification, a problem, and a mapping, the model
// derives per-level per-tensor data movement from a loop-order-aware reuse
// analysis, converts it to energy with per-level access costs, bounds delay
// by compute and per-level bandwidth, and reports the energy-delay product
// (EDP) the search methods minimize. See DESIGN.md §3 for the analysis
// rules and their relation to Timeloop's.
//
// Model implements costmodel.Evaluator and registers itself as "timeloop",
// the costmodel registry's default backend. Eval accounting and
// query-latency emulation belong to the search tracker, not the model.
// Nothing outside this package (and its tests) constructs a *Model
// directly; consumers go through costmodel.New.
package timeloop

import (
	"context"
	"fmt"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
)

// Model evaluates mapping costs for one (accelerator, problem) pair.
type Model struct {
	Arch arch.Spec
	Prob loopnest.Problem

	macs     float64
	fullSize []float64 // per-tensor full footprints
	relevant [][]bool  // relevant[t][d]: dimension d indexes tensor t
}

func init() {
	costmodel.Register("timeloop", func(a arch.Spec, p loopnest.Problem) (costmodel.Evaluator, error) {
		return New(a, p)
	})
}

// New constructs a cost model, validating the architecture and problem.
func New(a arch.Spec, p loopnest.Problem) (*Model, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("timeloop: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("timeloop: %w", err)
	}
	if want := len(p.Algo.Tensors) - 1; a.OperandsPerMAC != want {
		return nil, fmt.Errorf("timeloop: architecture consumes %d operands/MAC but algorithm %s has %d input tensors",
			a.OperandsPerMAC, p.Algo.Name, want)
	}
	m := &Model{Arch: a, Prob: p, macs: p.MACs(), relevant: p.Algo.Relevance()}
	for t := range p.Algo.Tensors {
		m.fullSize = append(m.fullSize, float64(p.Algo.Tensors[t].Footprint(p.Shape)))
	}
	return m, nil
}

// Name implements costmodel.Evaluator.
func (m *Model) Name() string { return "timeloop" }

// Problem implements costmodel.Evaluator.
func (m *Model) Problem() loopnest.Problem { return m.Prob }

// AppendFingerprint implements costmodel.Evaluator.
func (m *Model) AppendFingerprint(dst []byte) []byte {
	return costmodel.AppendBackendFingerprint(dst, m.Name(), &m.Arch, &m.Prob)
}

// loop is one temporal loop with its dimension and trip count, and the
// product of the trip counts of this loop and every loop outside it.
type loop struct {
	dim     int
	count   int
	through float64
}

// evalScratch is the per-Cost evaluation workspace (cumulative tiles,
// temporal loop nests), kept on the Cost so a reused Cost value is a
// complete, allocation-free workspace: steady-state EvaluateInto calls on
// the same Cost perform zero heap allocations.
type evalScratch struct {
	tile1, tile2   []int
	loops1, loops2 []loop
}

// appendTemporalLoops appends the loop nest above the given on-chip level
// to buf, outermost first: for the L1 boundary the DRAM-level loops
// followed by the L2-level loops; for the L2 boundary the DRAM-level loops
// only. Passing buf[:0] reuses its storage. Each loop's through product
// multiplies the trip counts outermost first, so it is bit for bit the
// product reuseQ would take over the same prefix.
func appendTemporalLoops(buf []loop, mp *mapspace.Mapping, level arch.Level) []loop {
	through := 1.0
	appendLevel := func(l arch.Level) {
		for _, dim := range mp.Order[l] {
			count := mp.Tile[l][dim]
			through *= float64(count)
			buf = append(buf, loop{dim: dim, count: count, through: through})
		}
	}
	appendLevel(arch.DRAM)
	if level == arch.L1 {
		appendLevel(arch.L2)
	}
	return buf
}

// reuseQ returns the tile-refetch multiplier for a tensor under the given
// outer loop nest: the product of trip counts of every loop at or outside
// the innermost tensor-relevant loop. Loops inside that point form the
// maximal trailing block over which the resident tile is stationary
// (classic stationary-tile reuse; loop order therefore changes data
// movement, as in Timeloop). Trip-count-1 loops are degenerate and ignored.
// relevant is the tensor's row of the relevance table; the product is the
// innermost relevant loop's through product.
func reuseQ(relevant []bool, loops []loop) float64 {
	for i := len(loops) - 1; i >= 0; i-- {
		if loops[i].count > 1 && relevant[loops[i].dim] {
			return loops[i].through
		}
	}
	return 1
}

// multicastSplit returns (total spatial PEs, PEs along tensor-relevant
// dims). PEs along irrelevant dims share the tensor's data via NoC
// multicast (inputs) or contribute to a NoC reduction (outputs).
func multicastSplit(relevant []bool, spatial []int) (total, rel float64) {
	total, rel = 1, 1
	for d, s := range spatial {
		total *= float64(s)
		if relevant[d] {
			rel *= float64(s)
		}
	}
	return total, rel
}

// allocEnergyScale models SRAM access energy growing with the allocated
// array size: a tensor given the whole buffer pays 25% more per access
// than one given half of it. This keeps the buffer-allocation attribute
// cost-relevant beyond validity, mirroring Timeloop's capacity-dependent
// access energies.
func allocEnergyScale(frac float64) float64 {
	return 0.75 + 0.5*frac
}

// Evaluate computes the cost of a mapping into a fresh Cost. The mapping
// must be structurally complete; callers are expected to pass members of
// the map space (use mapspace.Space.IsMember to check), and structural
// mismatches return an error rather than silently mis-costing. Hot paths
// keep a reusable Cost and call EvaluateInto.
func (m *Model) Evaluate(mp *mapspace.Mapping) (costmodel.Cost, error) {
	var c costmodel.Cost
	err := m.EvaluateInto(context.Background(), mp, &c)
	return c, err
}

// EvaluateBatchInto implements costmodel.Evaluator sequentially.
func (m *Model) EvaluateBatchInto(ctx context.Context, ms []mapspace.Mapping, costs []costmodel.Cost, errs []error) {
	costmodel.SequentialBatch(ctx, m, ms, costs, errs)
}

// EvaluateInto implements costmodel.Evaluator. The Cost doubles as the
// evaluation workspace: its slices and internal scratch are reused, so
// steady-state search loops that keep one Cost per goroutine evaluate with
// zero heap allocations (the search tracker relies on this). The
// previous contents of c are overwritten; Costs kept past the next
// evaluation must be Clone()s.
func (m *Model) EvaluateInto(_ context.Context, mp *mapspace.Mapping, c *costmodel.Cost) error {
	nd := m.Prob.Algo.NumDims()
	if len(mp.Spatial) != nd || len(mp.Tile[arch.L1]) != nd ||
		len(mp.Tile[arch.L2]) != nd || len(mp.Tile[arch.DRAM]) != nd {
		return fmt.Errorf("timeloop: mapping has wrong arity for %d dims", nd)
	}
	for l := arch.L1; l < arch.NumLevels; l++ {
		if len(mp.Order[l]) != nd {
			return fmt.Errorf("timeloop: level %s order has wrong arity", l)
		}
	}
	nt := len(m.Prob.Algo.Tensors)
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		if len(mp.Alloc[level]) != nt {
			return fmt.Errorf("timeloop: level %s allocation has wrong arity", level)
		}
	}

	c.Reset(nt)
	ws, _ := c.Scratch.(*evalScratch)
	if ws == nil {
		ws = &evalScratch{}
		c.Scratch = ws
	}
	ws.tile1 = mp.CumulativeTileInto(ws.tile1, arch.L1)
	ws.tile2 = mp.CumulativeTileInto(ws.tile2, arch.L2)
	ws.loops1 = appendTemporalLoops(ws.loops1[:0], mp, arch.L1)
	ws.loops2 = appendTemporalLoops(ws.loops2[:0], mp, arch.L2)
	tileL1, tileL2 := ws.tile1, ws.tile2
	loopsL1, loopsL2 := ws.loops1, ws.loops2

	for t := range m.Prob.Algo.Tensors {
		tensor := &m.Prob.Algo.Tensors[t]
		fpL1 := float64(tensor.Footprint(tileL1))
		fpL2 := float64(tensor.Footprint(tileL2))
		q1 := reuseQ(m.relevant[t], loopsL1)
		q2 := reuseQ(m.relevant[t], loopsL2)
		totalPEs, relPEs := multicastSplit(m.relevant[t], mp.Spatial)

		if !tensor.Output {
			perPEFills := fpL1 * q1
			l2Fills := fpL2 * q2
			// L1: compute-side reads (one per MAC) plus fill writes across
			// all active PEs.
			c.Accesses[arch.L1][t] = m.macs + perPEFills*totalPEs
			// L2: reads serving L1 fills (multicast collapses copies along
			// irrelevant spatial dims) plus writes of DRAM fills.
			c.Accesses[arch.L2][t] = perPEFills*relPEs + l2Fills
			// DRAM: reads only.
			c.Accesses[arch.DRAM][t] = l2Fills
			continue
		}

		// Output tensor: accumulation at L1, partial-sum traffic upward.
		spillPerPE := fpL1 * q1            // words each PE pushes up per residency change
		arriveL2 := spillPerPE * relPEs    // after NoC reduction along irrelevant dims
		freshL2 := fpL2 * q2               // distinct-element writes per L2 residency
		rmwL2 := maxf(0, arriveL2-freshL2) // read-modify-write reads at L2
		toDRAM := freshL2
		rmwDRAM := maxf(0, toDRAM-m.fullSize[t])

		// L1: accumulate read+write per MAC plus spill reads.
		c.Accesses[arch.L1][t] = 2*m.macs + spillPerPE*totalPEs
		// L2: arriving partial writes, RMW reads, and reads when draining
		// to DRAM.
		c.Accesses[arch.L2][t] = arriveL2 + rmwL2 + toDRAM
		// DRAM: final/partial writes plus RMW reads.
		c.Accesses[arch.DRAM][t] = toDRAM + rmwDRAM
	}

	// Energy.
	total := 0.0
	for l := arch.L1; l < arch.NumLevels; l++ {
		for t := 0; t < nt; t++ {
			scale := 1.0
			if l < arch.OnChipLevels {
				scale = allocEnergyScale(mp.Alloc[l][t])
			}
			e := c.Accesses[l][t] * m.Arch.EnergyPerAccess[l] * scale
			c.EnergyPJ[l][t] = e
			total += e
		}
	}
	c.MACEnergyPJ = m.macs * m.Arch.MACEnergyPJ
	c.TotalEnergyPJ = total + c.MACEnergyPJ

	// Delay: bottleneck of compute and per-level bandwidth.
	spatialPEs := float64(mp.SpatialPEs())
	c.ComputeCycles = m.macs / spatialPEs
	c.Cycles = c.ComputeCycles
	for l := arch.L1; l < arch.NumLevels; l++ {
		traffic := 0.0
		for t := 0; t < nt; t++ {
			traffic += c.Accesses[l][t]
		}
		if cycles := traffic / m.Arch.BandwidthWords[l]; cycles > c.Cycles {
			c.Cycles = cycles
		}
	}
	c.Utilization = m.macs / c.Cycles / float64(m.Arch.NumPEs)

	c.EDP = c.TotalEnergyPJ * 1e-12 * (c.Cycles / m.Arch.ClockHz)
	return nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
