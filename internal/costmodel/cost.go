package costmodel

import "mindmappings/internal/arch"

// Cost is the detailed output of one cost-model query, shared by every
// backend. Energies are in picojoules, delay in accelerator cycles. The
// paper's §4.1.3 output representation ("a vector containing the energy
// spent accessing each level of the memory hierarchy by each data type,
// compute utilization, total cycles, and total energy") is exposed via
// MetaStats.
type Cost struct {
	// Accesses[level][tensor] counts words moved at each level (reads plus
	// writes attributable to the tensor).
	Accesses [arch.NumLevels][]float64
	// EnergyPJ[level][tensor] is the corresponding access energy.
	EnergyPJ [arch.NumLevels][]float64
	// MACEnergyPJ is the datapath energy.
	MACEnergyPJ float64
	// TotalEnergyPJ is all access energy plus datapath energy.
	TotalEnergyPJ float64
	// ComputeCycles is MACs divided by utilized PEs.
	ComputeCycles float64
	// Cycles is the bottleneck delay across compute and memory levels.
	Cycles float64
	// Utilization is achieved MACs/cycle over peak MACs/cycle.
	Utilization float64
	// EDP is the energy-delay product in joule-seconds, the optimization
	// objective (§5.1.2).
	EDP float64

	// Scratch is the evaluating backend's private workspace, kept on the
	// Cost so a reused Cost value is a complete, allocation-free evaluation
	// workspace: steady-state EvaluateInto calls on the same Cost perform
	// zero heap allocations. Backends type-assert their own scratch type
	// and install a fresh one when the assertion fails; nothing outside a
	// backend may depend on its contents.
	Scratch any
}

// Reset prepares c to receive a fresh evaluation for an algorithm with nt
// tensors, reusing its per-level slices when already correctly sized.
func (c *Cost) Reset(nt int) {
	for l := range c.Accesses {
		if len(c.Accesses[l]) != nt {
			c.Accesses[l] = make([]float64, nt)
			c.EnergyPJ[l] = make([]float64, nt)
			continue
		}
		for t := 0; t < nt; t++ {
			c.Accesses[l][t] = 0
			c.EnergyPJ[l][t] = 0
		}
	}
	c.MACEnergyPJ = 0
	c.TotalEnergyPJ = 0
	c.ComputeCycles = 0
	c.Cycles = 0
	c.Utilization = 0
	c.EDP = 0
}

// MetaStats flattens the cost into the surrogate's rich output
// representation (§4.1.3): per-level per-tensor access energies, followed
// by total energy, utilization, and cycles. For CNN-Layer that is
// 3x3+3 = 12 values; for MTTKRP 3x4+3 = 15, matching §5.5.
func (c *Cost) MetaStats() []float64 {
	var out []float64
	for l := arch.L1; l < arch.NumLevels; l++ {
		out = append(out, c.EnergyPJ[l]...)
	}
	out = append(out, c.TotalEnergyPJ, c.Utilization, c.Cycles)
	return out
}
