package mapspace

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
)

// allocTolerance absorbs floating-point slop in allocation-sum and
// footprint-fit comparisons.
const allocTolerance = 1e-9

// Space is the mapping space M(a,p) for one accelerator and one problem
// (paper Definition 2.2). It provides the three routines the Mind Mappings
// API requires (Appendix B): Random (getMapping), IsMember, and Project
// (getProjection), plus the perturbation/recombination operators the
// black-box baselines use.
type Space struct {
	Arch arch.Spec
	Prob loopnest.Problem

	tables []*chainTable // per-dimension shared chain tables
}

// New constructs the map space for the given accelerator and problem,
// looking up the shared per-size chain tables of its dimensions. It fails
// if the problem or architecture is invalid, or if even the minimal tiling
// cannot fit the on-chip buffers.
func New(a arch.Spec, p loopnest.Problem) (*Space, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("mapspace: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("mapspace: %w", err)
	}
	s := &Space{Arch: a, Prob: p, tables: make([]*chainTable, len(p.Shape))}
	for dim, size := range p.Shape {
		s.tables[dim] = chainsFor(size)
	}
	min := s.minimalMapping()
	if err := s.IsMember(&min); err != nil {
		return nil, fmt.Errorf("mapspace: even minimal tiling invalid: %w", err)
	}
	return s, nil
}

// NumDims returns the number of problem dimensions.
func (s *Space) NumDims() int { return len(s.Prob.Shape) }

// NumTensors returns the number of tensors in the algorithm.
func (s *Space) NumTensors() int { return len(s.Prob.Algo.Tensors) }

// Chains returns the factorization chains of dimension d in EnumerateChains
// order. The slice is read-only: it belongs to the chain table shared by
// every Space, in every goroutine, with a dimension of the same size.
func (s *Space) Chains(d int) []FactorChain {
	c := s.tables[d].chains
	return c[:len(c):len(c)]
}

// scratch is the per-call workspace of the map-space routines. Tensor
// footprints are closures, so any tile buffer handed to them escapes to the
// heap; pooling the workspace keeps sampling, projection and membership
// tests free of allocations apart from the mappings they return.
type scratch struct {
	tile   []int     // cumulative tile at one level
	shares []float64 // per-tensor footprint shares of one level
	extra  []float64 // per-tensor weights or surpluses
	dims   []int     // dimension visiting order
	order  []int     // tensors by descending footprint
	fps    []float64 // per-tensor footprints
	des    desired   // projection target
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch   { return scratchPool.Get().(*scratch) }
func putScratch(ws *scratch) { scratchPool.Put(ws) }

// grow returns buf resliced to length n, reallocating only when too short.
// The contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// tileAt loads m's cumulative tile at level into the workspace.
func (ws *scratch) tileAt(m *Mapping, level arch.Level) []int {
	ws.tile = m.CumulativeTileInto(ws.tile, level)
	return ws.tile
}

// sharesAt returns each tensor's footprint at level under m as a fraction
// of the level's capacity, and the fractions' sum.
func (s *Space) sharesAt(ws *scratch, m *Mapping, level arch.Level) ([]float64, float64) {
	capWords := float64(s.Arch.LevelWords(level))
	tile := ws.tileAt(m, level)
	ws.shares = grow(ws.shares, s.NumTensors())
	sum := 0.0
	for t := range ws.shares {
		ws.shares[t] = float64(s.Prob.Algo.Tensors[t].Footprint(tile)) / capWords
		sum += ws.shares[t]
	}
	return ws.shares, sum
}

// FootprintWords returns tensor t's resident footprint in words at an
// on-chip level under mapping m.
func (s *Space) FootprintWords(m *Mapping, level arch.Level, t int) float64 {
	tile := m.CumulativeTile(level)
	return float64(s.Prob.Algo.Tensors[t].Footprint(tile))
}

// totalFootprint returns the summed tensor footprints at a level.
func (s *Space) totalFootprint(ws *scratch, m *Mapping, level arch.Level) float64 {
	tile := ws.tileAt(m, level)
	total := 0.0
	for t := range s.Prob.Algo.Tensors {
		total += float64(s.Prob.Algo.Tensors[t].Footprint(tile))
	}
	return total
}

// fitsBuffers reports whether the summed footprints fit the raw capacity of
// both on-chip levels (a necessary condition for any allocation to exist).
func (s *Space) fitsBuffers(ws *scratch, m *Mapping) bool {
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		if s.totalFootprint(ws, m, level) > float64(s.Arch.LevelWords(level))+allocTolerance {
			return false
		}
	}
	return true
}

// IsMember checks mapping validity (paper §4.1.1's isMember): structural
// shape, exact factorization of every dimension, spatial budget,
// permutation validity, allocation bounds, and per-tensor footprint fit
// within the allocated buffer share. A nil error means m ∈ M(a,p).
func (s *Space) IsMember(m *Mapping) error {
	if v := s.check(m); v.rule != valid {
		return s.describe(m, v)
	}
	return nil
}

// rule names one validity rule of check.
type rule uint8

const (
	valid rule = iota
	ruleTileCount
	ruleOrderCount
	ruleSpatialCount
	ruleFactorPositive
	ruleFactorProduct
	ruleSpatialPEs
	ruleOrderPermutation
	ruleAllocCount
	ruleAllocRange
	ruleAllocSum
	ruleFootprint
)

// violation is the first rule a mapping breaks, with where it broke and
// the computed value a message needs; the zero value means the mapping is
// valid. Returning it instead of an error keeps validity tests — Repair
// and Perturb run one per candidate — free of allocations.
type violation struct {
	rule  rule
	level arch.Level
	index int     // dimension or tensor, per rule
	value float64 // allocation sum or footprint in words, per rule
}

// check applies the IsMember rules in order and returns the first
// violation.
func (s *Space) check(m *Mapping) violation {
	d := s.NumDims()
	for l := arch.L1; l < arch.NumLevels; l++ {
		if len(m.Tile[l]) != d {
			return violation{rule: ruleTileCount, level: l}
		}
		if len(m.Order[l]) != d {
			return violation{rule: ruleOrderCount, level: l}
		}
	}
	if len(m.Spatial) != d {
		return violation{rule: ruleSpatialCount}
	}
	for dim := 0; dim < d; dim++ {
		c := m.Chain(dim)
		for _, f := range c {
			if f < 1 {
				return violation{rule: ruleFactorPositive, index: dim}
			}
		}
		if c.Product() != s.Prob.Shape[dim] {
			return violation{rule: ruleFactorProduct, index: dim}
		}
	}
	if m.SpatialPEs() > s.Arch.NumPEs {
		return violation{rule: ruleSpatialPEs}
	}
	for l := arch.L1; l < arch.NumLevels; l++ {
		if !isPermutation(m.Order[l], d) {
			return violation{rule: ruleOrderPermutation, level: l}
		}
	}
	nt := s.NumTensors()
	ws := getScratch()
	defer putScratch(ws)
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		if len(m.Alloc[level]) != nt {
			return violation{rule: ruleAllocCount, level: level}
		}
		sum := 0.0
		for t, a := range m.Alloc[level] {
			if a < 0 || a > 1 {
				return violation{rule: ruleAllocRange, level: level, index: t}
			}
			sum += a
		}
		if sum > 1+allocTolerance {
			return violation{rule: ruleAllocSum, level: level, value: sum}
		}
		capWords := float64(s.Arch.LevelWords(level))
		tile := ws.tileAt(m, level)
		for t := range s.Prob.Algo.Tensors {
			fp := float64(s.Prob.Algo.Tensors[t].Footprint(tile))
			if fp > m.Alloc[level][t]*capWords+allocTolerance {
				return violation{rule: ruleFootprint, level: level, index: t, value: fp}
			}
		}
	}
	return violation{}
}

// describe formats violation v of m as IsMember's error.
func (s *Space) describe(m *Mapping, v violation) error {
	d, l := s.NumDims(), v.level
	switch v.rule {
	case ruleTileCount:
		return fmt.Errorf("mapspace: level %s has %d tile factors, want %d", l, len(m.Tile[l]), d)
	case ruleOrderCount:
		return fmt.Errorf("mapspace: level %s has %d order entries, want %d", l, len(m.Order[l]), d)
	case ruleSpatialCount:
		return fmt.Errorf("mapspace: %d spatial factors, want %d", len(m.Spatial), d)
	case ruleFactorPositive:
		return fmt.Errorf("mapspace: dim %s has non-positive factor in %v",
			s.Prob.Algo.DimNames[v.index], m.Chain(v.index))
	case ruleFactorProduct:
		c := m.Chain(v.index)
		return fmt.Errorf("mapspace: dim %s factors %v product %d != size %d",
			s.Prob.Algo.DimNames[v.index], c, c.Product(), s.Prob.Shape[v.index])
	case ruleSpatialPEs:
		return fmt.Errorf("mapspace: spatial product %d exceeds %d PEs", m.SpatialPEs(), s.Arch.NumPEs)
	case ruleOrderPermutation:
		return fmt.Errorf("mapspace: level %s order %v is not a permutation", l, m.Order[l])
	case ruleAllocCount:
		return fmt.Errorf("mapspace: level %s has %d allocations, want %d",
			l, len(m.Alloc[l]), s.NumTensors())
	case ruleAllocRange:
		return fmt.Errorf("mapspace: level %s tensor %s allocation %v out of [0,1]",
			l, s.Prob.Algo.Tensors[v.index].Name, m.Alloc[l][v.index])
	case ruleAllocSum:
		return fmt.Errorf("mapspace: level %s allocations sum to %v > 1", l, v.value)
	case ruleFootprint:
		return fmt.Errorf("mapspace: level %s tensor %s footprint %.0f words exceeds allocated %.0f",
			l, s.Prob.Algo.Tensors[v.index].Name, v.value, m.Alloc[l][v.index]*float64(s.Arch.LevelWords(l)))
	}
	return nil
}

// isPermutation reports whether p is a permutation of [0, n), tracking
// seen entries in a bitset that lives on the stack for n <= 64.
func isPermutation(p []int, n int) bool {
	if len(p) != n {
		return false
	}
	var small [1]uint64
	seen := small[:]
	if n > 64 {
		seen = make([]uint64, (n+63)/64)
	}
	for _, v := range p {
		if v < 0 || v >= n {
			return false
		}
		word, bit := v/64, uint64(1)<<(v%64)
		if seen[word]&bit != 0 {
			return false
		}
		seen[word] |= bit
	}
	return true
}

// Random returns a uniformly sampled valid mapping (the paper's getMapping;
// §4.1.1 uses uniform random sampling with re-sampling of invalid points).
// After a bounded number of rejected tilings it falls back to the minimal
// mapping, which is always valid.
func (s *Space) Random(rng *rand.Rand) Mapping {
	const maxTries = 64
	ws := getScratch()
	defer putScratch(ws)
	m := s.emptyMapping()
	for try := 0; try < maxTries; try++ {
		s.randomTiling(ws, rng, &m)
		if s.fitsBuffers(ws, &m) {
			s.randomOrders(rng, &m)
			s.randomAlloc(ws, rng, &m)
			return m
		}
	}
	s.setMinimalTiling(&m)
	s.coverAlloc(ws, &m)
	s.randomOrders(rng, &m)
	return m
}

// randomTiling samples every dimension's factor chain under the PE budget,
// visiting dimensions in random order so no dimension systematically starves
// the spatial budget.
func (s *Space) randomTiling(ws *scratch, rng *rand.Rand, m *Mapping) {
	ws.dims = grow(ws.dims, s.NumDims())
	permInto(rng, ws.dims)
	budget := s.Arch.NumPEs
	for _, dim := range ws.dims {
		// Spatial-factor-1 chains always qualify: budget stays >= 1.
		c, _ := s.tables[dim].draw(rng, budget)
		m.SetChain(dim, c)
		budget /= c[ChainSpatial]
	}
}

// permInto fills p with a pseudo-random permutation of [0, len(p)), making
// exactly the draws rng.Perm(len(p)) makes (math/rand keeps Perm's stream
// fixed for compatibility) without allocating.
func permInto(rng *rand.Rand, p []int) {
	for i := range p {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

func (s *Space) randomOrders(rng *rand.Rand, m *Mapping) {
	for l := arch.L1; l < arch.NumLevels; l++ {
		permInto(rng, m.Order[l])
	}
}

// randomAlloc assigns each tensor its required footprint share plus a
// random split of (part of) the remaining capacity, so allocation stays a
// genuinely free programmable attribute while remaining valid.
func (s *Space) randomAlloc(ws *scratch, rng *rand.Rand, m *Mapping) {
	nt := s.NumTensors()
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		shares, sum := s.sharesAt(ws, m, level)
		slack := (1 - sum) * rng.Float64()
		ws.extra = grow(ws.extra, nt)
		weights := ws.extra
		wsum := 0.0
		for t := range weights {
			weights[t] = rng.Float64() + 1e-6
			wsum += weights[t]
		}
		for t := range shares {
			m.Alloc[level][t] = shares[t] + slack*weights[t]/wsum
		}
	}
}

// emptyMapping returns a mapping with all-ones tiles, identity loop orders
// and zero allocations. Its integer slices share one backing array and its
// allocation slices another; each is capacity-capped, so an append to one
// never spills into the next.
func (s *Space) emptyMapping() Mapping {
	d, nt := s.NumDims(), s.NumTensors()
	var m Mapping
	ints := make([]int, (2*int(arch.NumLevels)+1)*d)
	for i := range ints[:(int(arch.NumLevels)+1)*d] {
		ints[i] = 1 // tiles and spatial factors
	}
	for l := range m.Tile {
		m.Tile[l], ints = ints[:d:d], ints[d:]
	}
	m.Spatial, ints = ints[:d:d], ints[d:]
	for l := range m.Order {
		m.Order[l], ints = ints[:d:d], ints[d:]
		for i := range m.Order[l] {
			m.Order[l][i] = i
		}
	}
	fracs := make([]float64, arch.OnChipLevels*nt)
	for l := range m.Alloc {
		m.Alloc[l] = fracs[l*nt : (l+1)*nt : (l+1)*nt]
	}
	return m
}

// Minimal returns the always-valid baseline mapping: every loop at DRAM,
// one PE, identity loop orders, footprint-covering allocations. It is a
// convenient deterministic starting point for tests and examples.
func (s *Space) Minimal() Mapping {
	return s.minimalMapping()
}

// minimalMapping places every loop at DRAM (all on-chip tiles of size 1),
// which fits any reasonable buffer configuration; allocations are
// footprint-proportional with the slack spread evenly.
func (s *Space) minimalMapping() Mapping {
	ws := getScratch()
	defer putScratch(ws)
	m := s.emptyMapping()
	s.setMinimalTiling(&m)
	s.coverAlloc(ws, &m)
	return m
}

// setMinimalTiling moves every loop to DRAM.
func (s *Space) setMinimalTiling(m *Mapping) {
	for dim, size := range s.Prob.Shape {
		m.SetChain(dim, FactorChain{1, 1, 1, size})
	}
}

// TightenAlloc sets every buffer allocation to exactly its tensor's
// footprint share — the minimum valid (and, under a monotone
// allocation-energy model, cheapest) allocation for the mapping's tiling.
// It returns false when the tiling does not fit raw capacity.
func (s *Space) TightenAlloc(m *Mapping) bool {
	ws := getScratch()
	defer putScratch(ws)
	nt := s.NumTensors()
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		shares, sum := s.sharesAt(ws, m, level)
		if len(m.Alloc[level]) != nt {
			m.Alloc[level] = make([]float64, nt)
		}
		copy(m.Alloc[level], shares)
		if sum > 1+allocTolerance {
			return false
		}
	}
	return true
}

// coverAlloc sets allocations to exactly cover footprints plus an even
// share of the slack. It assumes footprints fit raw capacity and that m's
// allocation slices have one entry per tensor.
func (s *Space) coverAlloc(ws *scratch, m *Mapping) {
	nt := s.NumTensors()
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		shares, sum := s.sharesAt(ws, m, level)
		slack := math.Max(0, 1-sum)
		for t := range shares {
			m.Alloc[level][t] = shares[t] + slack/float64(nt)
		}
	}
}

// repairAlloc projects the mapping's allocations onto the valid region:
// every tensor gets at least its footprint share, surpluses are scaled to
// fit the remaining capacity, and proportions are otherwise preserved. It
// returns false when the tiling's footprints exceed raw capacity (no
// allocation can fix that).
func (s *Space) repairAlloc(ws *scratch, m *Mapping) bool {
	nt := s.NumTensors()
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		shares, sumShares := s.sharesAt(ws, m, level)
		if sumShares > 1+allocTolerance {
			return false
		}
		if len(m.Alloc[level]) != nt {
			m.Alloc[level] = make([]float64, nt)
		}
		ws.extra = grow(ws.extra, nt)
		surplus := ws.extra
		sumSurplus := 0.0
		for t := range shares {
			surplus[t] = math.Max(0, math.Min(1, m.Alloc[level][t])-shares[t])
			sumSurplus += surplus[t]
		}
		slack := 1 - sumShares
		scale := 1.0
		if sumSurplus > slack && sumSurplus > 0 {
			scale = slack / sumSurplus
		}
		for t := range shares {
			m.Alloc[level][t] = shares[t] + surplus[t]*scale
		}
	}
	return true
}

// SizeLog10 returns log10 of the Cartesian-product upper bound on |M|
// (paper §2.1: |M| = O(∏|P_d|)): factorization choices per dimension,
// loop orders per level, and bank-granular allocations per on-chip level.
func (s *Space) SizeLog10() float64 {
	total := 0.0
	for _, t := range s.tables {
		total += math.Log10(float64(len(t.chains)))
	}
	d := float64(s.NumDims())
	logFact := func(n float64) float64 {
		lg, _ := math.Lgamma(n + 1)
		return lg / math.Ln10
	}
	total += float64(arch.NumLevels) * logFact(d)
	// Allocations at bank granularity: compositions of Banks into
	// NumTensors non-negative parts per level: C(Banks+T-1, T-1).
	b := float64(s.Arch.Banks)
	t := float64(s.NumTensors())
	logBinom := logFact(b+t-1) - logFact(b) - logFact(t-1)
	total += float64(arch.OnChipLevels) * logBinom
	return total
}
