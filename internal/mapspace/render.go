package mapspace

import (
	"fmt"
	"strings"

	"mindmappings/internal/arch"
)

// RenderLoopNest pretty-prints a mapping as the tiled loop nest it
// represents, in the style of the paper's Code 1/Code 2 listings: DRAM-level
// loops outermost, then L2-level loops, a parallel band for the spatial
// factors, and the per-PE L1 loops innermost. Trip-count-1 loops are
// omitted (they are degenerate), and each band is annotated with the
// storage level whose tiles it iterates over plus the per-tensor buffer
// allocations. The result is copied out of the builder, so it holds
// exactly its bytes and none of the builder's growth slack: callers such
// as the service retain it with every finished job.
//
// Example output for a tiled 1D convolution:
//
//	// problem conv1d(X=4096, R=9), 36864 MACs
//	for x2 in [0:8)            // DRAM loops (DRAM->L2 tiles)
//	  for r1 in [0:3)          // L2 loops (L2->L1 tiles)
//	    parallel for x_sp in [0:64)
//	      for x0 in [0:8)      // L1 loops (per-PE)
//	        for r0 in [0:3)
//	          O[...] += I[...] * F[...]
func (s *Space) RenderLoopNest(m *Mapping) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// problem %s, %.4g MACs\n", s.Prob.String(), s.Prob.MACs())
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		fmt.Fprintf(&b, "// %s allocation:", level)
		for t := range s.Prob.Algo.Tensors {
			fmt.Fprintf(&b, " %s=%.0f%%", s.Prob.Algo.Tensors[t].Name, 100*m.Alloc[level][t])
		}
		fmt.Fprintln(&b)
	}

	indent := 0
	write := func(line string) {
		b.WriteString(strings.Repeat("  ", indent))
		b.WriteString(line)
		b.WriteByte('\n')
	}
	band := func(level arch.Level, suffix, comment string) {
		first := true
		for _, dim := range m.Order[level] {
			count := m.Tile[level][dim]
			if count <= 1 {
				continue
			}
			c := ""
			if first {
				c = "  // " + comment
				first = false
			}
			write(fmt.Sprintf("for %s%s in [0:%d)%s",
				strings.ToLower(s.Prob.Algo.DimNames[dim]), suffix, count, c))
			indent++
		}
	}

	band(arch.DRAM, "2", "DRAM loops (DRAM->L2 tiles)")
	band(arch.L2, "1", "L2 loops (L2->L1 tiles)")
	first := true
	for dim, sp := range m.Spatial {
		if sp <= 1 {
			continue
		}
		c := ""
		if first {
			c = fmt.Sprintf("  // spatial band: %d PEs", m.SpatialPEs())
			first = false
		}
		write(fmt.Sprintf("parallel for %s_sp in [0:%d)%s",
			strings.ToLower(s.Prob.Algo.DimNames[dim]), sp, c))
		indent++
	}
	band(arch.L1, "0", "L1 loops (per-PE)")

	// Innermost statement: output accumulates the product of the inputs.
	var out string
	var ins []string
	for t := range s.Prob.Algo.Tensors {
		name := s.Prob.Algo.Tensors[t].Name
		if s.Prob.Algo.Tensors[t].Output {
			out = name
		} else {
			ins = append(ins, name+"[...]")
		}
	}
	write(fmt.Sprintf("%s[...] += %s", out, strings.Join(ins, " * ")))
	return strings.Clone(b.String())
}
