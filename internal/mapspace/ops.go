package mapspace

import (
	"math/rand"

	"mindmappings/internal/arch"
)

// This file implements the neighborhood and recombination operators used by
// the black-box baselines (paper Appendix A): Perturb for simulated
// annealing's neighbor moves and the gradient search's random injections,
// Crossover and Mutate for the genetic algorithm. All operators return
// valid mappings (invalid intermediates are repaired by projection).

// Perturb returns a valid neighbor of m produced by one random structural
// move: re-sampling one dimension's factor chain, swapping two loops in one
// level's order, shifting buffer allocation between tensors, or moving one
// prime factor between bands of a dimension.
func (s *Space) Perturb(rng *rand.Rand, m *Mapping) Mapping {
	var out Mapping
	s.PerturbInto(rng, m, &out)
	return out
}

// PerturbInto is Perturb writing the neighbor into dst, whose storage it
// reuses when dst has m's shape. dst must not share storage with m.
func (s *Space) PerturbInto(rng *rand.Rand, m, dst *Mapping) {
	const attempts = 8
	for a := 0; a < attempts; a++ {
		m.CloneInto(dst)
		switch rng.Intn(4) {
		case 0:
			s.moveResampleChain(rng, dst)
		case 1:
			s.moveSwapOrder(rng, dst)
		case 2:
			s.moveShiftAlloc(rng, dst)
		case 3:
			s.moveFactorBetweenBands(rng, dst)
		}
		// A projected neighbour is checked again; a valid one was just
		// checked by repair.
		if s.repair(dst) || s.check(dst).rule == valid {
			return
		}
	}
	m.CloneInto(dst)
}

// moveResampleChain re-draws one dimension's tile factorization under the
// spatial budget left by the other dimensions.
func (s *Space) moveResampleChain(rng *rand.Rand, m *Mapping) {
	dim := rng.Intn(s.NumDims())
	budget := s.Arch.NumPEs
	for d2, sp := range m.Spatial {
		if d2 != dim {
			budget /= sp
		}
	}
	if c, ok := s.tables[dim].draw(rng, budget); ok {
		m.SetChain(dim, c)
	}
}

func (s *Space) moveSwapOrder(rng *rand.Rand, m *Mapping) {
	d := s.NumDims()
	if d < 2 {
		return
	}
	l := arch.Level(rng.Intn(int(arch.NumLevels)))
	i, j := rng.Intn(d), rng.Intn(d)
	for i == j {
		j = rng.Intn(d)
	}
	m.Order[l][i], m.Order[l][j] = m.Order[l][j], m.Order[l][i]
}

func (s *Space) moveShiftAlloc(rng *rand.Rand, m *Mapping) {
	nt := s.NumTensors()
	if nt < 2 {
		return
	}
	level := arch.Level(rng.Intn(arch.OnChipLevels))
	from, to := rng.Intn(nt), rng.Intn(nt)
	for from == to {
		to = rng.Intn(nt)
	}
	delta := rng.Float64() * 0.2
	if delta > m.Alloc[level][from] {
		delta = m.Alloc[level][from]
	}
	m.Alloc[level][from] -= delta
	m.Alloc[level][to] += delta
}

// moveFactorBetweenBands moves one prime factor of a dimension between two
// bands (e.g. from the DRAM loop into the L1 tile), the smallest structural
// step in tiling space.
func (s *Space) moveFactorBetweenBands(rng *rand.Rand, m *Mapping) {
	dim := rng.Intn(s.NumDims())
	c := m.Chain(dim)
	var bands [4]int
	srcs := bands[:0]
	for band, f := range c {
		if f > 1 {
			srcs = append(srcs, band)
		}
	}
	if len(srcs) == 0 {
		return
	}
	src := srcs[rng.Intn(len(srcs))]
	dst := rng.Intn(4)
	for dst == src {
		dst = rng.Intn(4)
	}
	p := smallestPrimeFactor(c[src])
	c[src] /= p
	c[dst] *= p
	m.SetChain(dim, c)
}

// Crossover recombines two parents attribute-wise (paper Appendix A: "A
// cross-over results in swapping attributes of one individual with the
// other"): each dimension's chain comes from either parent, each level's
// loop order from either parent, and allocations are blended. The child is
// repaired to validity.
func (s *Space) Crossover(rng *rand.Rand, a, b *Mapping) Mapping {
	var child Mapping
	s.CrossoverInto(rng, a, b, &child)
	return child
}

// CrossoverInto is Crossover writing the child into child, whose storage
// it reuses when child has a's shape. child must not share storage with a
// or b.
func (s *Space) CrossoverInto(rng *rand.Rand, a, b, child *Mapping) {
	a.CloneInto(child)
	for dim := 0; dim < s.NumDims(); dim++ {
		if rng.Intn(2) == 1 {
			child.SetChain(dim, b.Chain(dim))
		}
	}
	for l := arch.L1; l < arch.NumLevels; l++ {
		if rng.Intn(2) == 1 {
			copy(child.Order[l], b.Order[l])
		}
	}
	lambda := rng.Float64()
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		for t := range child.Alloc[level] {
			child.Alloc[level][t] = lambda*a.Alloc[level][t] + (1-lambda)*b.Alloc[level][t]
		}
	}
	s.repair(child)
}

// Mutate randomizes each attribute group independently with probability
// rate (paper Appendix A: "a mutation is implemented as a .05 probability
// of a random update for each of the mapping's attributes") and repairs the
// result.
func (s *Space) Mutate(rng *rand.Rand, m *Mapping, rate float64) Mapping {
	var out Mapping
	s.MutateInto(rng, m, rate, &out)
	return out
}

// MutateInto is Mutate writing the result into out, whose storage it
// reuses when out has m's shape. out may be m itself, which then mutates
// in place: the genetic algorithm mutates the child it just bred without
// copying it again. Otherwise out must not share storage with m.
func (s *Space) MutateInto(rng *rand.Rand, m *Mapping, rate float64, out *Mapping) {
	if out != m {
		m.CloneInto(out)
	}
	changed := false
	for dim := 0; dim < s.NumDims(); dim++ {
		if rng.Float64() < rate {
			chains := s.tables[dim].chains
			out.SetChain(dim, chains[rng.Intn(len(chains))])
			changed = true
		}
	}
	for l := arch.L1; l < arch.NumLevels; l++ {
		if rng.Float64() < rate {
			s.moveSwapOrder(rng, out)
			changed = true
		}
	}
	if rng.Float64() < rate {
		s.moveShiftAlloc(rng, out)
		changed = true
	}
	if changed {
		s.repair(out)
	}
}
