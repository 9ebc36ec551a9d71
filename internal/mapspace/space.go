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

	tables  []*chainTable // per-dimension shared chain tables
	fp      Footprinter   // footprints and the stamp of this problem's blocks
	touches []uint64      // per tensor, bit d set when it depends on dimension d; nil beyond 64 dimensions
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
	s.fp = NewFootprinter(p)
	if len(p.Shape) <= 64 {
		s.touches = make([]uint64, len(p.Algo.Tensors))
		for t := range p.Algo.Tensors {
			for _, d := range p.Algo.Tensors[t].Dims {
				s.touches[t] |= 1 << d
			}
		}
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

// scratch is the per-call workspace of the map-space routines: the tile,
// share and ordering buffers one call fills and discards. Pooling it keeps
// sampling, projection and membership tests free of allocations apart from
// the mappings they return.
type scratch struct {
	tile   []int     // cumulative tile at one level
	shares []float64 // per-tensor footprint shares of one level
	extra  []float64 // per-tensor weights or surpluses
	dims   []int     // dimension visiting order
	order  []int     // tensors by descending footprint
	fps    []float64 // per-tensor footprints of one level
	blk    []float64 // footprint block of a mapping that has none of its own
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

// blockOf returns m's footprint block when it is laid out for this
// space's tensors, and nil otherwise.
func (s *Space) blockOf(m *Mapping) []float64 {
	if b := m.block(); len(b) == blockLen(s.NumTensors()) {
		return b
	}
	return nil
}

// blockIn returns m's footprint block, or the workspace's when m has none.
func (s *Space) blockIn(ws *scratch, m *Mapping) []float64 {
	if b := s.blockOf(m); b != nil {
		return b
	}
	ws.blk = grow(ws.blk, blockLen(s.NumTensors()))
	return ws.blk
}

// stamped reports whether m's block holds this space's footprints for m's
// current tiling, and that tiling passed the factor and permutation rules.
func (s *Space) stamped(m *Mapping) bool {
	b := s.blockOf(m)
	return b != nil && b[0] == s.fp.stamp
}

// fill writes into blk the footprints of m's tensors that depend on a
// dimension in dims (allDims for all of them), at both on-chip levels. The
// tile stays on the stack up to 16 dimensions; wider problems borrow the
// pooled workspace. It leaves the stamp alone.
func (s *Space) fill(m *Mapping, blk []float64, dims uint64) {
	if dims == 0 {
		return
	}
	touches := s.touches
	if dims == allDims {
		touches = nil
	}
	d := s.NumDims()
	var buf [16]int
	tile := buf[:]
	if d > len(buf) {
		ws := getScratch()
		defer putScratch(ws)
		ws.tile = grow(ws.tile, d)
		tile = ws.tile
	}
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		s.fp.fillLevel(m, blk[1:], level, dims, touches, tile[:d])
	}
}

// fillStamped fills m's block (the workspace's when m has none) for a
// tiling that passed the factor and permutation rules, stamps it and
// returns it.
func (s *Space) fillStamped(ws *scratch, m *Mapping) []float64 {
	blk := s.blockIn(ws, m)
	s.fill(m, blk, allDims)
	blk[0] = s.fp.stamp
	return blk
}

// sharesAt returns each tensor's footprint at level, read from the
// footprints fps of a block, as a fraction of the level's capacity, and
// the fractions' sum.
func (s *Space) sharesAt(ws *scratch, fps []float64, level arch.Level) ([]float64, float64) {
	capWords := float64(s.Arch.LevelWords(level))
	nt := s.NumTensors()
	ws.shares = grow(ws.shares, nt)
	sum := 0.0
	for t := range ws.shares {
		ws.shares[t] = fps[int(level)*nt+t] / capWords
		sum += ws.shares[t]
	}
	return ws.shares, sum
}

// fitsLevel reports whether the footprints fps of a block sum to at most
// the raw capacity of level.
func (s *Space) fitsLevel(fps []float64, level arch.Level) bool {
	nt := s.NumTensors()
	total := 0.0
	for _, fp := range fps[int(level)*nt : int(level+1)*nt] {
		total += fp
	}
	return total <= float64(s.Arch.LevelWords(level))+allocTolerance
}

// fitsBuffers reports whether the footprints fps of a block fit the raw
// capacity of both on-chip levels (a necessary condition for any
// allocation to exist).
func (s *Space) fitsBuffers(fps []float64) bool {
	return s.fitsLevel(fps, arch.L1) && s.fitsLevel(fps, arch.L2)
}

// IsMember checks mapping validity (paper §4.1.1's isMember): structural
// shape, exact factorization of every dimension, spatial budget,
// permutation validity, allocation bounds, and per-tensor footprint fit
// within the allocated buffer share. A nil error means m ∈ M(a,p). It
// never writes m.
func (s *Space) IsMember(m *Mapping) error {
	if v := s.verdict(m); v.rule != valid {
		return s.describe(m, v)
	}
	return nil
}

// verdict applies every rule of IsMember to m, computing the footprints
// into a block of its own: on the stack up to 8 tensors, in the pooled
// workspace beyond.
func (s *Space) verdict(m *Mapping) violation {
	var buf [17]float64
	n := blockLen(s.NumTensors())
	if n > len(buf) {
		ws := getScratch()
		defer putScratch(ws)
		ws.blk = grow(ws.blk, n)
		return s.check(m, change{}, ws.blk)
	}
	return s.check(m, change{}, buf[:n])
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

// change is what an operator did to a mapping since it last held a
// stamped block: the dimensions whose chains it set. Its zero value knows
// nothing, so check applies every rule.
//
// The operators only set chains drawn from the chain tables, move a prime
// factor between two bands of one chain, or copy chains and loop orders
// from another stamped mapping; they swap loops within an order and
// change allocations. None of that breaks a shape, factor or permutation
// rule of a mapping that passed them, and the footprints of a tensor that
// depends on no set dimension stay what the block holds.
type change struct {
	trusted bool   // the mapping's block was stamped by this space before the operator ran
	dims    uint64 // bit d: the operator set dimension d's chain
}

// trust returns the change of an operator about to work on m: trusted
// when m's block is stamped and the space has at most 64 dimensions.
func (s *Space) trust(m *Mapping) change {
	return change{trusted: s.touches != nil && s.stamped(m)}
}

// set records that dimension dim's chain was set; a negative dim is none.
func (c *change) set(dim int) {
	if dim >= 0 {
		c.dims |= 1 << dim
	}
}

// check applies the IsMember rules in order and returns the first
// violation. blk is the footprint block it fills: m's own (Repair and the
// operators) or a scratch one (IsMember). Once the shape, factor and
// permutation rules pass it fills blk for m's tiling and stamps it, so
// the allocation rules, the repair and the cost models read those
// footprints. A trusted change skips the shape, factor and permutation
// rules and recomputes only the footprints of tensors that depend on a
// dimension it set; blk must then be m's own block.
func (s *Space) check(m *Mapping, ch change, blk []float64) violation {
	d := s.NumDims()
	if !ch.trusted {
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
	}
	if m.SpatialPEs() > s.Arch.NumPEs {
		return violation{rule: ruleSpatialPEs}
	}
	dims := allDims
	if ch.trusted {
		dims = ch.dims
	} else {
		for l := arch.L1; l < arch.NumLevels; l++ {
			if !isPermutation(m.Order[l], d) {
				return violation{rule: ruleOrderPermutation, level: l}
			}
		}
	}
	s.fill(m, blk, dims)
	blk[0] = s.fp.stamp
	fps := blk[1:]
	nt := s.NumTensors()
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		if len(m.Alloc[level]) != nt {
			return violation{rule: ruleAllocCount, level: level}
		}
		sum := 0.0
		for t, a := range m.Alloc[level] {
			if !(a >= 0 && a <= 1) { // NaN included
				return violation{rule: ruleAllocRange, level: level, index: t}
			}
			sum += a
		}
		if sum > 1+allocTolerance {
			return violation{rule: ruleAllocSum, level: level, value: sum}
		}
		capWords := float64(s.Arch.LevelWords(level))
		for t, fp := range fps[int(level)*nt : int(level+1)*nt] {
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
	var m Mapping
	s.RandomInto(rng, &m)
	return m
}

// RandomInto is Random writing the sample into dst, whose storage it
// reuses when dst has the space's shape and a footprint block; it makes
// exactly Random's draws. dst must not share storage with a mapping the
// caller still reads.
func (s *Space) RandomInto(rng *rand.Rand, dst *Mapping) {
	const maxTries = 64
	ws := getScratch()
	defer putScratch(ws)
	if !s.shaped(dst) || dst.block() == nil {
		*dst = s.emptyMapping()
	}
	blk := dst.block()
	for try := 0; try < maxTries; try++ {
		s.randomTiling(ws, rng, dst)
		if s.fillFits(ws, dst, blk[1:]) {
			blk[0] = s.fp.stamp
			s.randomOrders(rng, dst)
			s.randomAlloc(ws, rng, dst, blk[1:])
			return
		}
	}
	s.setMinimalTiling(dst)
	s.coverAlloc(ws, dst, s.fillStamped(ws, dst)[1:])
	s.randomOrders(rng, dst)
}

// fillFits fills the footprints fps of a sampled tiling level by level and
// reports whether each level's fit its raw capacity, stopping at the first
// that does not.
func (s *Space) fillFits(ws *scratch, m *Mapping, fps []float64) bool {
	ws.tile = grow(ws.tile, s.NumDims())
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		s.fp.fillLevel(m, fps, level, allDims, nil, ws.tile)
		if !s.fitsLevel(fps, level) {
			return false
		}
	}
	return true
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
func (s *Space) randomAlloc(ws *scratch, rng *rand.Rand, m *Mapping, fps []float64) {
	nt := s.NumTensors()
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		shares, sum := s.sharesAt(ws, fps, level)
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

// emptyMapping returns a mapping with all-ones tiles, identity loop orders,
// zero allocations and an unstamped footprint block. Its integer slices
// share one backing array and its allocation slices and block another.
// Each slice is capacity-capped, so an append to one never spills into the
// next, except Alloc[L2], whose capacity reaches over the block: an append
// to it overwrites the stamp, and its new length no longer locates a block.
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
	fracs := make([]float64, arch.OnChipLevels*nt+blockLen(nt))
	for l := range m.Alloc {
		m.Alloc[l] = fracs[l*nt : (l+1)*nt : (l+1)*nt]
	}
	m.Alloc[arch.OnChipLevels-1] = fracs[(arch.OnChipLevels-1)*nt : arch.OnChipLevels*nt]
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
	s.coverAlloc(ws, &m, s.fillStamped(ws, &m)[1:])
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
	ws.blk = grow(ws.blk, blockLen(nt))
	s.fill(m, ws.blk, allDims)
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		shares, sum := s.sharesAt(ws, ws.blk[1:], level)
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

// coverAlloc sets allocations to exactly cover the footprints fps plus an
// even share of the slack. It assumes footprints fit raw capacity and that
// m's allocation slices have one entry per tensor.
func (s *Space) coverAlloc(ws *scratch, m *Mapping, fps []float64) {
	nt := s.NumTensors()
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		shares, sum := s.sharesAt(ws, fps, level)
		slack := math.Max(0, 1-sum)
		for t := range shares {
			m.Alloc[level][t] = shares[t] + slack/float64(nt)
		}
	}
}

// repairAlloc projects the mapping's allocations onto the valid region:
// every tensor gets at least its footprint share (from the footprints
// fps of m's tiling), surpluses are scaled to fit the remaining capacity,
// and proportions are otherwise preserved. It returns false when the
// tiling's footprints exceed raw capacity (no allocation can fix that).
func (s *Space) repairAlloc(ws *scratch, m *Mapping, fps []float64) bool {
	nt := s.NumTensors()
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		shares, sumShares := s.sharesAt(ws, fps, level)
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
