package mapspace

import (
	"math/rand"

	"mindmappings/internal/arch"
)

// This file implements the neighborhood and recombination operators used by
// the black-box baselines (paper Appendix A): Perturb for simulated
// annealing's neighbor moves and the gradient search's random injections,
// CrossoverInto and MutateInto for the genetic algorithm. All operators
// return valid mappings (invalid intermediates are repaired by projection).
//
// Each operator records what it changed (a change) and checks its result
// against that: when the parent's footprint block is stamped, only the
// spatial-budget, allocation and footprint rules run, and only the
// footprints of tensors that depend on a dimension whose chain changed are
// computed again.

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
// Projection always returns a member, so one move and its repair suffice.
func (s *Space) PerturbInto(rng *rand.Rand, m, dst *Mapping) {
	m.CloneInto(dst)
	s.repair(dst, s.perturbMove(rng, dst))
}

// perturbMove applies one random Perturb move to m and returns the change.
func (s *Space) perturbMove(rng *rand.Rand, m *Mapping) change {
	ch := s.trust(m)
	switch rng.Intn(4) {
	case 0:
		ch.set(s.moveResampleChain(rng, m))
	case 1:
		s.moveSwapOrder(rng, m)
	case 2:
		s.moveShiftAlloc(rng, m)
	case 3:
		ch.set(s.moveFactorBetweenBands(rng, m))
	}
	return ch
}

// moveResampleChain re-draws one dimension's tile factorization under the
// spatial budget left by the other dimensions, and returns the dimension
// it set (-1 for none).
func (s *Space) moveResampleChain(rng *rand.Rand, m *Mapping) int {
	dim := rng.Intn(s.NumDims())
	budget := s.Arch.NumPEs
	for d2, sp := range m.Spatial {
		if d2 != dim {
			budget /= sp
		}
	}
	c, ok := s.tables[dim].draw(rng, budget)
	if !ok {
		return -1
	}
	m.SetChain(dim, c)
	return dim
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
// step in tiling space, and returns the dimension it set (-1 for none).
func (s *Space) moveFactorBetweenBands(rng *rand.Rand, m *Mapping) int {
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
		return -1
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
	return dim
}

// CrossoverInto recombines two parents attribute-wise (paper Appendix A:
// "A cross-over results in swapping attributes of one individual with the
// other"): each dimension's chain comes from either parent, each level's
// loop order from either parent, and allocations are blended. The child is
// repaired to validity and written into child, whose storage it reuses when
// child has a's shape. child must not share storage with a or b.
func (s *Space) CrossoverInto(rng *rand.Rand, a, b, child *Mapping) {
	a.CloneInto(child)
	s.repair(child, s.crossMove(rng, b, child))
}

// crossMove recombines child, a copy of one parent, with the other parent
// b, and returns the change.
func (s *Space) crossMove(rng *rand.Rand, b, child *Mapping) change {
	ch := s.trust(child)
	ch.trusted = ch.trusted && s.stamped(b)
	for dim := 0; dim < s.NumDims(); dim++ {
		if rng.Intn(2) == 1 {
			child.SetChain(dim, b.Chain(dim))
			ch.set(dim)
		}
	}
	for l := arch.L1; l < arch.NumLevels; l++ {
		if rng.Intn(2) == 1 {
			copy(child.Order[l], b.Order[l])
		}
	}
	lambda := rng.Float64()
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		for t, fa := range child.Alloc[level] {
			child.Alloc[level][t] = lambda*fa + (1-lambda)*b.Alloc[level][t]
		}
	}
	return ch
}

// MutateInto randomizes each attribute group of m independently with
// probability rate (paper Appendix A: "a mutation is implemented as a .05
// probability of a random update for each of the mapping's attributes"),
// repairs the result and writes it into out, whose storage it reuses when
// out has m's shape. out may be m itself, which then mutates in place: the
// genetic algorithm mutates the child it just bred without copying it
// again. Otherwise out must not share storage with m.
func (s *Space) MutateInto(rng *rand.Rand, m *Mapping, rate float64, out *Mapping) {
	if out != m {
		m.CloneInto(out)
	}
	if ch, changed := s.mutateMove(rng, rate, out); changed {
		s.repair(out, ch)
	}
}

// mutateMove randomizes m's attribute groups at the given rate and
// returns the change and whether anything was randomized.
func (s *Space) mutateMove(rng *rand.Rand, rate float64, m *Mapping) (change, bool) {
	ch := s.trust(m)
	changed := false
	for dim := 0; dim < s.NumDims(); dim++ {
		if rng.Float64() < rate {
			chains := s.tables[dim].chains
			m.SetChain(dim, chains[rng.Intn(len(chains))])
			ch.set(dim)
			changed = true
		}
	}
	for l := arch.L1; l < arch.NumLevels; l++ {
		if rng.Float64() < rate {
			s.moveSwapOrder(rng, m)
			changed = true
		}
	}
	if rng.Float64() < rate {
		s.moveShiftAlloc(rng, m)
		changed = true
	}
	return ch, changed
}
