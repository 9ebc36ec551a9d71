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
	logs  [][4]float64
	ranks [arch.NumLevels][]float64
	alloc [arch.OnChipLevels][]float64
}

// reset sizes des for d dimensions and nt tensors, all entries zero.
func (des *desired) reset(d, nt int) {
	des.logs = grow(des.logs, d)
	clear(des.logs)
	for l := range des.ranks {
		des.ranks[l] = grow(des.ranks[l], d)
		clear(des.ranks[l])
	}
	for l := range des.alloc {
		des.alloc[l] = grow(des.alloc[l], nt)
		clear(des.alloc[l])
	}
}

// desiredFrom sets ws.des to the point m asks for and returns it.
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
	for l := arch.L1; l < arch.NumLevels; l++ {
		if isPermutation(m.Order[l], d) {
			for pos, dim := range m.Order[l] {
				des.ranks[l][dim] = float64(pos)
			}
		} // else: all-zero ranks decode to the identity order
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
	des := s.desiredFrom(ws, m)
	for dim := 0; dim < s.NumDims(); dim++ {
		onchip := des.logs[dim][ChainL1] + des.logs[dim][ChainSpatial] + des.logs[dim][ChainL2]
		dram := math.Log2(float64(s.Prob.Shape[dim])) - onchip
		if dram < 0 {
			dram = 0
		}
		des.logs[dim][ChainDRAM] = dram
	}
	return s.projectDesired(ws)
}

// Repair returns m unchanged when it is already valid, otherwise its
// projection. All mutation-style operators funnel through this.
func (s *Space) Repair(m Mapping) Mapping {
	if s.check(&m).rule == valid {
		return m
	}
	return s.Project(m)
}

// projectDesired returns the valid mapping nearest ws.des.
func (s *Space) projectDesired(ws *scratch) Mapping {
	m := s.emptyMapping()
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
		c, ok := s.tables[dim].nearest(&des.logs[dim], budget)
		if !ok {
			// Always possible: spatial factor 1 chains exist for every size.
			c, _ = s.tables[dim].nearest(&des.logs[dim], 1)
		}
		m.SetChain(dim, c)
		budget /= c[ChainSpatial]
	}

	// 2. Shrink tiles until footprints fit raw buffer capacity.
	s.shrinkToFit(ws, &m, des.logs)

	// 3. Loop orders: argsort of the rank scores, ties broken by dimension
	// index for determinism.
	for l := arch.L1; l < arch.NumLevels; l++ {
		ranksToPerm(m.Order[l], des.ranks[l])
	}

	// 4. Allocations: clamp the request and project onto the feasible
	// region (footprint floor per tensor, per-level sum at most 1).
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		for t := range m.Alloc[level] {
			m.Alloc[level][t] = clamp01(des.alloc[level][t])
		}
	}
	if !s.repairAlloc(ws, &m) {
		// shrinkToFit guarantees feasibility; reaching here means a logic
		// error, so fail safe with the always-valid minimal mapping.
		m = s.minimalMapping()
	}
	return m
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
		for s.totalFootprint(ws, m, level) > capWords+allocTolerance {
			if !s.shrinkOnce(ws, m, level, logs) {
				// Nothing left to shrink at this level; force minimal
				// on-chip tiles for every dimension as a final safety net.
				s.setMinimalTiling(m)
				break
			}
		}
	}
}

// shrinkOnce picks the dimension that contributes the largest cumulative
// tile factor at the level among dimensions relevant to the largest-
// footprint tensor, and replaces its chain with the nearest one having a
// strictly smaller cumulative factor (and no larger spatial factor, to keep
// the PE budget satisfied). Returns false when no dimension can shrink.
func (s *Space) shrinkOnce(ws *scratch, m *Mapping, level arch.Level, logs [][4]float64) bool {
	tile := ws.tileAt(m, level)
	// Tensors by descending footprint.
	nt := s.NumTensors()
	ws.fps, ws.order = grow(ws.fps, nt), grow(ws.order, nt)
	fps, order := ws.fps, ws.order
	for t := range order {
		order[t] = t
		fps[t] = float64(s.Prob.Algo.Tensors[t].Footprint(tile))
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
		curSpatial := m.Spatial[bestDim]
		curProd := bandProduct(m, level, bestDim)
		table := s.tables[bestDim]
		best, bestDist := -1, math.Inf(1)
		for i, c := range table.chains {
			if c[ChainSpatial] > curSpatial {
				continue
			}
			p := c[ChainL1]
			if level >= arch.L2 {
				p *= c[ChainSpatial] * c[ChainL2]
			}
			if p >= curProd {
				continue
			}
			if dist := logDist(&table.logs[i], &logs[bestDim], bestDist); dist < bestDist {
				best, bestDist = i, dist
			}
		}
		if best >= 0 {
			m.SetChain(bestDim, table.chains[best])
			return true
		}
	}
	return false
}
