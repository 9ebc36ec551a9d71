package mapspace

import (
	"fmt"
	"math"

	"mindmappings/internal/arch"
)

// Vector layout (paper §5.5): the surrogate input is the concatenation of
//
//	[ problem id | tile-factor log2s (3 levels x D) | spatial log2s (D) |
//	  loop-order ranks (3 levels x D) | allocations (2 levels x T) ]
//
// which yields 62 values for CNN-Layer (7+21+7+21+6) and 40 for MTTKRP
// (4+12+4+12+8), exactly the input widths the paper reports.

// VectorLen returns the length of the encoded mapping vector including the
// problem-id prefix.
func (s *Space) VectorLen() int {
	d := s.NumDims()
	return d + // problem id
		int(arch.NumLevels)*d + // temporal tile factors
		d + // spatial factors
		int(arch.NumLevels)*d + // loop-order ranks
		arch.OnChipLevels*s.NumTensors() // buffer allocations
}

// Encode flattens a mapping into the surrogate's input vector (paper
// §4.1.2: each programmable attribute converted to floats and flattened).
// Tile and spatial factors are encoded in log2, loop orders as normalized
// rank positions, allocations as raw fractions; the problem id (log2 of
// each dimension size) is the prefix.
func (s *Space) Encode(m *Mapping) []float64 {
	return s.EncodeInto(nil, m)
}

// EncodeInto is Encode writing into dst (grown when too short, reused
// otherwise), so encode-heavy hot paths — cache-key construction, batched
// surrogate scoring — stay allocation-free.
func (s *Space) EncodeInto(dst []float64, m *Mapping) []float64 {
	d := s.NumDims()
	if cap(dst) < s.VectorLen() {
		dst = make([]float64, 0, s.VectorLen())
	}
	vec := s.Prob.AppendPID(dst[:0]) // problem-id prefix
	for l := arch.L1; l < arch.NumLevels; l++ {
		for dim := 0; dim < d; dim++ {
			vec = append(vec, math.Log2(float64(m.Tile[l][dim])))
		}
	}
	for dim := 0; dim < d; dim++ {
		vec = append(vec, math.Log2(float64(m.Spatial[dim])))
	}
	denom := float64(d - 1)
	if denom <= 0 {
		denom = 1
	}
	for l := arch.L1; l < arch.NumLevels; l++ {
		pos := vec[len(vec) : len(vec)+d]
		vec = vec[:len(vec)+d]
		for i := range pos {
			pos[i] = 0
		}
		for p, dim := range m.Order[l] {
			pos[dim] = float64(p) / denom
		}
	}
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		vec = append(vec, m.Alloc[level]...)
	}
	return vec
}

// Decode parses a surrogate-layout vector (such as one produced by a
// gradient step on an encoded mapping) and projects it onto the nearest
// valid mapping. The problem-id prefix is ignored — the space already knows
// its problem.
func (s *Space) Decode(vec []float64) (Mapping, error) {
	var m Mapping
	if err := s.DecodeInto(vec, &m); err != nil {
		return Mapping{}, err
	}
	return m, nil
}

// DecodeInto is Decode writing the projection into dst, whose storage it
// reuses when dst has the space's shape: a descent chain decodes each step
// over its previous mapping.
func (s *Space) DecodeInto(vec []float64, dst *Mapping) error {
	if len(vec) != s.VectorLen() {
		return fmt.Errorf("mapspace: decode vector length %d, want %d",
			len(vec), s.VectorLen())
	}
	d := s.NumDims()
	i := d // skip problem id
	ws := getScratch()
	defer putScratch(ws)
	des := &ws.des
	des.reset(d, s.NumTensors())
	levelToSlot := [arch.NumLevels]int{ChainL1, ChainL2, ChainDRAM}
	for l := arch.L1; l < arch.NumLevels; l++ {
		for dim := 0; dim < d; dim++ {
			des.logs[dim][levelToSlot[l]] = sanitizeLog(vec[i])
			i++
		}
	}
	for dim := 0; dim < d; dim++ {
		des.logs[dim][ChainSpatial] = sanitizeLog(vec[i])
		i++
	}
	for l := arch.L1; l < arch.NumLevels; l++ {
		for dim := 0; dim < d; dim++ {
			r := vec[i]
			if math.IsNaN(r) {
				r = 0
			}
			des.ranks[l][dim] = r
			i++
		}
	}
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		for t := range des.alloc[level] {
			des.alloc[level][t] = clamp01(vec[i])
			i++
		}
	}
	if !s.shaped(dst) {
		*dst = s.emptyMapping()
	}
	s.projectInto(ws, dst, false)
	return nil
}

// sanitizeLog bounds a desired log2 tile factor so NaNs and infinities from
// a runaway gradient cannot poison projection.
func sanitizeLog(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	const maxLog = 40 // 2^40 exceeds any dimension here
	if v > maxLog {
		return maxLog
	}
	if v < -maxLog {
		return -maxLog
	}
	return v
}
