package costmodel

import (
	"context"
	"fmt"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
)

// Roofline is the optimistic analytical backend, registered as "roofline":
// a roofline/lower-bound cost model in the spirit of GOMA-style closed-form
// estimators. It keeps the reference model's tiling-driven data-movement
// structure but assumes the best case everywhere the reference model
// charges for mapping details:
//
//   - loop order: each tensor's tile is refetched only when a
//     tensor-relevant outer loop iterates (the minimum over all loop
//     orders of the reference model's stationary-tile reuse factor), so
//     Roofline costs are loop-order-insensitive;
//   - partial sums: outputs accumulate without read-modify-write traffic
//     above L1;
//   - buffer allocation: SRAM access energy is charged at the nominal
//     per-access cost, independent of bank allocation.
//
// Delay is the classic roofline bound: the maximum of compute time and
// every level's bandwidth time. What holds, and what the roofline tests
// pin: on every mapping Roofline's traffic and cycles are at most the
// reference model's, and its EDP is at least oracle.Bound's
// mapping-independent algorithmic minimum. Its energy, and so its EDP,
// is not a lower bound on the reference model's: the reference model
// scales SRAM access energy by 0.75 to 1.25 with bank allocation while
// Roofline charges the nominal cost, so on some mappings Roofline's EDP
// is the higher (up to about 1.2x on random Table-1 mappings; ROADMAP
// item 23). Roofline stays mapping-sensitive enough to drive search
// through its two levers: spatial parallelism (compute roofline,
// multicast split) and the halo overhead of small tiles. Purely temporal
// re-tiling of halo-free tensors is deliberately cost-neutral: under
// best-case reuse, traffic is tile-size-invariant when footprints are
// multiplicative.
type Roofline struct {
	Arch arch.Spec
	Prob loopnest.Problem

	macs     float64
	relevant [][]bool // relevant[t][d]: dimension d indexes tensor t
	fp       mapspace.Footprinter
}

func init() {
	Register("roofline", func(a arch.Spec, p loopnest.Problem) (Evaluator, error) {
		return NewRoofline(a, p)
	})
}

// NewRoofline constructs the roofline backend, validating the architecture
// and problem exactly as the reference backend does.
func NewRoofline(a arch.Spec, p loopnest.Problem) (*Roofline, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("roofline: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("roofline: %w", err)
	}
	if want := len(p.Algo.Tensors) - 1; a.OperandsPerMAC != want {
		return nil, fmt.Errorf("roofline: architecture consumes %d operands/MAC but algorithm %s has %d input tensors",
			a.OperandsPerMAC, p.Algo.Name, want)
	}
	return &Roofline{Arch: a, Prob: p, macs: p.MACs(), relevant: p.Algo.Relevance(), fp: mapspace.NewFootprinter(p)}, nil
}

// Name implements Evaluator.
func (r *Roofline) Name() string { return "roofline" }

// Problem implements Evaluator.
func (r *Roofline) Problem() loopnest.Problem { return r.Prob }

// AppendFingerprint implements Evaluator.
func (r *Roofline) AppendFingerprint(dst []byte) []byte {
	return AppendBackendFingerprint(dst, r.Name(), &r.Arch, &r.Prob)
}

// rooflineScratch is the per-Cost evaluation workspace: footprints of a
// mapping without a fresh footprint block.
type rooflineScratch struct {
	fp mapspace.FootprintBuf
}

// EvaluateBatchInto implements Evaluator sequentially.
func (r *Roofline) EvaluateBatchInto(ctx context.Context, ms []mapspace.Mapping, costs []Cost, errs []error) {
	SequentialBatch(ctx, r, ms, costs, errs)
}

// EvaluateInto implements Evaluator. The Cost doubles as the evaluation
// workspace; steady-state calls reusing one Cost allocate nothing.
func (r *Roofline) EvaluateInto(_ context.Context, mp *mapspace.Mapping, c *Cost) error {
	nd := r.Prob.Algo.NumDims()
	if len(mp.Spatial) != nd || len(mp.Tile[arch.L1]) != nd ||
		len(mp.Tile[arch.L2]) != nd || len(mp.Tile[arch.DRAM]) != nd {
		return fmt.Errorf("roofline: mapping has wrong arity for %d dims", nd)
	}
	nt := len(r.Prob.Algo.Tensors)
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		if len(mp.Alloc[level]) != nt {
			return fmt.Errorf("roofline: level %s allocation has wrong arity", level)
		}
	}

	c.Reset(nt)
	ws, _ := c.Scratch.(*rooflineScratch)
	if ws == nil {
		ws = &rooflineScratch{}
		c.Scratch = ws
	}
	fps := r.fp.Footprints(mp, &ws.fp)

	for t := range r.Prob.Algo.Tensors {
		tensor, relevant := &r.Prob.Algo.Tensors[t], r.relevant[t]
		fp1, fp2 := fps[t], fps[nt+t]

		// Best-order refetch factors: only tensor-relevant outer loops can
		// force a tile refetch, so the optimum puts every irrelevant loop
		// innermost. q2 covers the DRAM-level loops (L2 tile residencies),
		// q1 additionally the L2-level loops (L1 tile residencies).
		q1, q2 := 1.0, 1.0
		totalPEs, relPEs := 1.0, 1.0
		for d := 0; d < nd; d++ {
			totalPEs *= float64(mp.Spatial[d])
			if relevant[d] {
				q2 *= float64(mp.Tile[arch.DRAM][d])
				q1 *= float64(mp.Tile[arch.DRAM][d] * mp.Tile[arch.L2][d])
				relPEs *= float64(mp.Spatial[d])
			}
		}
		perPE := fp1 * q1 // words filled into (or spilled from) each PE's L1
		l2Turn := fp2 * q2

		if !tensor.Output {
			// L1: compute-side reads plus fill writes across active PEs;
			// L2: reads serving L1 fills (perfect multicast along
			// irrelevant spatial dims) plus DRAM fill writes; DRAM: reads.
			c.Accesses[arch.L1][t] = r.macs + perPE*totalPEs
			c.Accesses[arch.L2][t] = perPE*relPEs + l2Turn
			c.Accesses[arch.DRAM][t] = l2Turn
			continue
		}
		// Output: accumulate read+write per MAC at L1 plus spills upward;
		// partial sums merge for free above L1 (no RMW traffic).
		c.Accesses[arch.L1][t] = 2*r.macs + perPE*totalPEs
		c.Accesses[arch.L2][t] = perPE*relPEs + l2Turn
		c.Accesses[arch.DRAM][t] = l2Turn
	}

	// Energy at nominal per-access cost (no allocation-dependent scaling).
	total := 0.0
	for l := arch.L1; l < arch.NumLevels; l++ {
		for t := 0; t < nt; t++ {
			e := c.Accesses[l][t] * r.Arch.EnergyPerAccess[l]
			c.EnergyPJ[l][t] = e
			total += e
		}
	}
	c.MACEnergyPJ = r.macs * r.Arch.MACEnergyPJ
	c.TotalEnergyPJ = total + c.MACEnergyPJ

	// Roofline delay: bottleneck of compute and per-level bandwidth.
	c.ComputeCycles = r.macs / float64(mp.SpatialPEs())
	c.Cycles = c.ComputeCycles
	for l := arch.L1; l < arch.NumLevels; l++ {
		traffic := 0.0
		for t := 0; t < nt; t++ {
			traffic += c.Accesses[l][t]
		}
		if cycles := traffic / r.Arch.BandwidthWords[l]; cycles > c.Cycles {
			c.Cycles = cycles
		}
	}
	c.Utilization = r.macs / c.Cycles / float64(r.Arch.NumPEs)

	c.EDP = c.TotalEnergyPJ * 1e-12 * (c.Cycles / r.Arch.ClockHz)
	return nil
}
