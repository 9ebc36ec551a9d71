package mapspace

import (
	"math"

	"mindmappings/internal/arch"
)

// desired captures a possibly-infeasible target point in mapping space:
// continuous log2 tile factors, continuous loop-order rank scores (lower is
// outer), and continuous allocations. Projection turns it into the nearest
// valid Mapping. It lives in the pooled workspace, so its slices are reused
// from call to call.
type desired struct {
	logs     [][4]float64
	hint     []int // per dimension: the chain-table index whose logs are logs[dim], or -1
	ranks    [arch.NumLevels][]float64
	alloc    [arch.OnChipLevels][]float64
	permuted bool // desiredFrom's mapping had a permutation at every level
}

// reset sizes des for d dimensions and nt tensors, all entries zero and
// no chain hints.
func (des *desired) reset(d, nt int) {
	des.logs = grow(des.logs, d)
	clear(des.logs)
	des.hint = grow(des.hint, d)
	for i := range des.hint {
		des.hint[i] = -1
	}
	for l := range des.ranks {
		des.ranks[l] = grow(des.ranks[l], d)
		clear(des.ranks[l])
	}
	for l := range des.alloc {
		des.alloc[l] = grow(des.alloc[l], nt)
		clear(des.alloc[l])
	}
}

// desiredFrom sets ws.des to the point m asks for and returns it. A
// dimension whose chain is a member of its table gets that chain as its
// hint: its desired logs are the table's logs for it, bit for bit.
func (s *Space) desiredFrom(ws *scratch, m *Mapping) *desired {
	d := s.NumDims()
	des := &ws.des
	des.reset(d, s.NumTensors())
	structurallyComplete := len(m.Spatial) == d
	for l := range m.Tile {
		if len(m.Tile[l]) != d {
			structurallyComplete = false
		}
	}
	for dim := 0; dim < d && structurallyComplete; dim++ {
		c := m.Chain(dim)
		if h := s.tables[dim].indexOf(c); h >= 0 {
			// The table's logs are math.Log2 of the same factors.
			des.logs[dim], des.hint[dim] = s.tables[dim].logs[h], h
			continue
		}
		for i, f := range c {
			if f < 1 {
				f = 1
			}
			des.logs[dim][i] = math.Log2(float64(f))
		}
	}
	if !structurallyComplete {
		// Incomplete mappings project as if they requested everything at
		// DRAM (the minimal tiling).
		for dim := 0; dim < d; dim++ {
			des.logs[dim][ChainDRAM] = math.Log2(float64(s.Prob.Shape[dim]))
		}
	}
	des.permuted = true
	for l := arch.L1; l < arch.NumLevels; l++ {
		if isPermutation(m.Order[l], d) {
			for pos, dim := range m.Order[l] {
				des.ranks[l][dim] = float64(pos)
			}
		} else { // all-zero ranks decode to the identity order
			des.permuted = false
		}
	}
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		for t := range des.alloc[level] {
			if t < len(m.Alloc[level]) {
				des.alloc[level][t] = m.Alloc[level][t]
			}
		}
	}
	return des
}

// Project maps an arbitrary (possibly invalid) mapping onto the nearest
// valid member of the space — the paper's getProjection routine, used after
// every gradient step ("we calculate nearest neighbor valid mappings based
// on euclidean distance ... a standard approach, often referred to as
// Projected Gradient Descent", §4.2). Distances are measured in log2 space
// for tile factors, rank space for loop orders, and fraction space for
// allocations.
func (s *Space) Project(m Mapping) Mapping {
	ws := getScratch()
	defer putScratch(ws)
	s.desiredFrom(ws, &m)
	return s.projectDesired(ws)
}

// Reproject adapts a mapping solved for a different problem shape of the
// same algorithm into this space: the donor's on-chip structure (L1,
// spatial, and L2 tile logs), loop orders, and buffer allocations become
// the desired point, while each dimension's DRAM factor is re-targeted so
// the chain covers this space's shape; projection then snaps the result
// to the nearest valid member. This is the atlas nearest-neighbor warm
// start — good mappings transfer across similar shapes because the
// on-chip blocking, not the outer DRAM trip count, is what the search
// spent its budget discovering.
func (s *Space) Reproject(m *Mapping) Mapping {
	ws := getScratch()
	defer putScratch(ws)
	s.retargeted(ws, m)
	return s.projectDesired(ws)
}

// retargeted sets ws.des to the point m asks for with every dimension's
// DRAM log re-targeted to this space's shape, and returns it. The DRAM
// logs no longer match any chain's, so no dimension keeps a hint.
func (s *Space) retargeted(ws *scratch, m *Mapping) *desired {
	des := s.desiredFrom(ws, m)
	for dim := 0; dim < s.NumDims(); dim++ {
		onchip := des.logs[dim][ChainL1] + des.logs[dim][ChainSpatial] + des.logs[dim][ChainL2]
		dram := math.Log2(float64(s.Prob.Shape[dim])) - onchip
		if dram < 0 {
			dram = 0
		}
		des.logs[dim][ChainDRAM] = dram
		des.hint[dim] = -1
	}
	return des
}

// Repair returns m unchanged when it is already valid, otherwise its
// projection. All mutation-style operators funnel through this. The
// projection reuses m's storage when its slices have the space's shape, so
// the result shares m's backing arrays either way: callers replace m with
// the result (m = s.Repair(m)) or pass a clone. Even a valid m gets its
// footprint block filled and stamped.
func (s *Space) Repair(m Mapping) Mapping {
	s.repair(&m, change{})
	return m
}

// repair projects *m in place when it is invalid, and reports whether m
// was already valid. ch is what an operator changed since m's block was
// last stamped (the zero change for a mapping of unknown history); the
// check fills and stamps m's block, or a workspace one when m has none.
//
// A shaped mapping whose first violation is an allocation rule, and whose
// tiling fits raw buffer capacity, takes a short path with the same
// result: projection's steps 1–3 give back its own chains and orders.
// Every chain is a member of its table (the factor rules passed), so it is
// its own hint, and the spatial product fits the PE budget, so nearest
// returns it; shrinkToFit's loop condition is fitsBuffers' condition;
// ranks read off a permutation sort back to it. Only step 4 remains, on
// the footprints the check computed. Any other shaped mapping whose orders
// are permutations keeps them for the same reason, and skips step 3.
func (s *Space) repair(m *Mapping, ch change) bool {
	var ws *scratch
	blk := s.blockOf(m)
	if blk == nil {
		ch = change{}
		ws = getScratch()
		defer putScratch(ws)
		blk = s.blockIn(ws, m)
	}
	v := s.check(m, ch, blk)
	if v.rule == valid {
		return true
	}
	if ws == nil {
		ws = getScratch()
		defer putScratch(ws)
	}
	if allocRule(v.rule) && s.shaped(m) && s.fitsBuffers(blk[1:]) {
		s.projectAlloc(ws, m, blk[1:], m.Alloc)
		return false
	}
	des := s.desiredFrom(ws, m)
	keepOrders := des.permuted && s.shaped(m)
	if !s.shaped(m) {
		*m = s.emptyMapping()
	}
	s.projectInto(ws, m, keepOrders)
	return false
}

// allocRule reports whether r is one of the rules check applies to a
// mapping's allocations, after every tiling and order rule has passed.
func allocRule(r rule) bool {
	return r == ruleAllocRange || r == ruleAllocSum || r == ruleFootprint
}

// shaped reports whether m's slices have the lengths of this space's
// mappings, so projection can write into them.
func (s *Space) shaped(m *Mapping) bool {
	d, nt := s.NumDims(), s.NumTensors()
	if len(m.Spatial) != d {
		return false
	}
	for l := range m.Tile {
		if len(m.Tile[l]) != d || len(m.Order[l]) != d {
			return false
		}
	}
	for l := range m.Alloc {
		if len(m.Alloc[l]) != nt {
			return false
		}
	}
	return true
}

// projectDesired returns the valid mapping nearest ws.des.
func (s *Space) projectDesired(ws *scratch) Mapping {
	m := s.emptyMapping()
	s.projectInto(ws, &m, false)
	return m
}

// projectInto writes the valid mapping nearest ws.des into m, which must
// be shaped. Every field is written before it is read, so m's previous
// contents never matter, except that keepOrders keeps m's loop orders: the
// caller asserts they are the permutations ws.des's ranks were read off,
// which step 3 would sort back to unchanged.
func (s *Space) projectInto(ws *scratch, m *Mapping, keepOrders bool) {
	des := &ws.des

	// 1. Per-dimension nearest factor chains under the PE budget. Greedy in
	// descending desired spatial so large parallelism requests are honored
	// first.
	dims := grow(ws.dims, s.NumDims())
	ws.dims = dims
	for i := range dims {
		dims[i] = i
	}
	sortStable(dims, func(a, b int) bool {
		return des.logs[a][ChainSpatial] > des.logs[b][ChainSpatial]
	})
	budget := s.Arch.NumPEs
	for _, dim := range dims {
		c, ok := s.tables[dim].nearest(&des.logs[dim], budget, des.hint[dim])
		if !ok {
			// Always possible: spatial factor 1 chains exist for every size.
			c, _ = s.tables[dim].nearest(&des.logs[dim], 1, des.hint[dim])
		}
		m.SetChain(dim, c)
		budget /= c[ChainSpatial]
	}

	// 2. Shrink tiles until footprints fit raw buffer capacity.
	s.shrinkToFit(ws, m, des.logs)

	// 3. Loop orders: argsort of the rank scores, ties broken by dimension
	// index for determinism.
	if !keepOrders {
		for l := arch.L1; l < arch.NumLevels; l++ {
			ranksToPerm(m.Order[l], des.ranks[l])
		}
	}

	// 4. Allocations, on the final tiling's footprints, which fill and
	// stamp m's block.
	s.projectAlloc(ws, m, s.fillStamped(ws, m)[1:], des.alloc)
}

// projectAlloc is projection's last step: it sets m's allocations to the
// clamped request want and projects them onto the feasible region
// (footprint floor per tensor, per-level sum at most 1), given the
// footprints fps of m's tiling. want may be m.Alloc itself. m's tiling
// must fit raw buffer capacity; should no allocation fit it after all, m
// fails safe to the always-valid minimal mapping.
func (s *Space) projectAlloc(ws *scratch, m *Mapping, fps []float64, want [arch.OnChipLevels][]float64) {
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		for t := range m.Alloc[level] {
			m.Alloc[level][t] = clamp01(want[level][t])
		}
	}
	if !s.repairAlloc(ws, m, fps) {
		*m = s.minimalMapping()
	}
}

func clamp01(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ranksToPerm fills perm with the permutation (outermost first) that the
// per-dimension rank scores ask for. Lower scores go outer; ties resolve by
// dimension index; NaN scores count as 0.
func ranksToPerm(perm []int, ranks []float64) {
	for i := range perm {
		perm[i] = i
	}
	sortStable(perm, func(a, b int) bool {
		ra, rb := ranks[a], ranks[b]
		if math.IsNaN(ra) {
			ra = 0
		}
		if math.IsNaN(rb) {
			rb = 0
		}
		return ra < rb
	})
}

// sortStable is an insertion sort of the small index slices projection
// orders. Every stable sort yields the same order under a strict weak
// ordering; this one allocates nothing.
func sortStable(idx []int, less func(a, b int) bool) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && less(idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// bandProduct returns the cumulative tile factor of dimension dim at the
// given on-chip level (L1: the L1 factor; L2: L1·spatial·L2).
func bandProduct(m *Mapping, level arch.Level, dim int) int {
	p := m.Tile[arch.L1][dim]
	if level >= arch.L2 {
		p *= m.Spatial[dim] * m.Tile[arch.L2][dim]
	}
	return p
}

// shrinkToFit reduces tile factors, nearest-first relative to the desired
// logs, until the summed tensor footprints fit the raw capacity of both
// on-chip levels. Termination: every replacement strictly reduces the
// offending cumulative tile factor, which is bounded below by 1, and the
// all-ones tiling fits by construction of the Space.
func (s *Space) shrinkToFit(ws *scratch, m *Mapping, logs [][4]float64) {
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		capWords := float64(s.Arch.LevelWords(level))
		for {
			fps, total := s.levelFootprints(ws, m, level)
			if !(total > capWords+allocTolerance) {
				break
			}
			if !s.shrinkOnce(ws, m, level, logs, fps) {
				// Nothing left to shrink at this level; force minimal
				// on-chip tiles for every dimension as a final safety net.
				s.setMinimalTiling(m)
				break
			}
		}
	}
}

// levelFootprints computes every tensor's footprint at level under m into
// the workspace and returns them with their sum.
func (s *Space) levelFootprints(ws *scratch, m *Mapping, level arch.Level) ([]float64, float64) {
	tile := ws.tileAt(m, level)
	ws.fps = grow(ws.fps, s.NumTensors())
	total := 0.0
	for t := range ws.fps {
		ws.fps[t] = float64(s.Prob.Algo.Tensors[t].Footprint(tile))
		total += ws.fps[t]
	}
	return ws.fps, total
}

// shrinkOnce picks the dimension that contributes the largest cumulative
// tile factor at the level among dimensions relevant to the largest-
// footprint tensor, and replaces its chain with the nearest one having a
// strictly smaller cumulative factor (and no larger spatial factor, to keep
// the PE budget satisfied). fps are the tensors' footprints at the level
// (levelFootprints). Returns false when no dimension can shrink.
func (s *Space) shrinkOnce(ws *scratch, m *Mapping, level arch.Level, logs [][4]float64, fps []float64) bool {
	// Tensors by descending footprint.
	ws.order = grow(ws.order, s.NumTensors())
	order := ws.order
	for t := range order {
		order[t] = t
	}
	sortStable(order, func(a, b int) bool { return fps[a] > fps[b] })

	for _, t := range order {
		tensor := &s.Prob.Algo.Tensors[t]
		bestDim := -1
		bestProd := 1
		for _, dim := range tensor.Dims {
			if p := bandProduct(m, level, dim); p > bestProd {
				bestProd = p
				bestDim = dim
			}
		}
		if bestDim < 0 {
			continue
		}
		table := s.tables[bestDim]
		ng := table.groupsUpTo(m.Spatial[bestDim])
		if i := table.argmin(&logs[bestDim], ng, bestProd, level >= arch.L2); i >= 0 {
			m.SetChain(bestDim, table.chains[i])
			return true
		}
	}
	return false
}
