package mapspace

import (
	"hash/fnv"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
)

// The footprint block. A mapping the map space builds (Random, Project,
// Decode, Minimal, and every Clone of one) carries, in the backing array of
// its allocations and right after Alloc[L2], a block of
// 1+OnChipLevels·nt float64s: a stamp, then every tensor's footprint in
// words at each on-chip level, indexed [level·nt + t]. Alloc[L2]'s
// capacity reaches over the block; its length does not.
//
// A non-zero stamp names the problem (its shape and its tensors' subscript
// terms) whose footprints the block holds for the mapping's current
// tiling, and certifies that this tiling passed the factor and permutation
// rules of IsMember for that problem. Only the passes that establish both
// write it: the membership check run by Repair and the operators (after
// those rules pass), projection's allocation step, and Random. SetChain
// zeroes it. Because the stamp lives in the shared array, copies of a
// Mapping value that share its storage see the same stamp, and Clone and
// CloneInto copy it with the tiling it describes.
//
// Readers: the operators trust a stamped parent (see change), and the
// cost models read the block through a Footprinter. IsMember, Project and
// the public Repair never trust a stamp, and IsMember and the cost models
// never write one. Code that writes Tile or Spatial directly instead of
// through SetChain must not hand the mapping to an operator or a cost
// model before Repair has rechecked it.

// blockLen is the length of a footprint block for nt tensors.
func blockLen(nt int) int { return 1 + arch.OnChipLevels*nt }

// block returns m's footprint block, stamp first, or nil when m's
// allocation storage has none.
func (m *Mapping) block() []float64 {
	a := m.Alloc[arch.OnChipLevels-1]
	nt := len(a)
	if nt == 0 || cap(a)-nt != blockLen(nt) {
		return nil
	}
	return a[nt:cap(a)]
}

// staleBlock zeroes m's stamp, if m has a block.
func (m *Mapping) staleBlock() {
	if b := m.block(); b != nil {
		b[0] = 0
	}
}

// problemStamp returns the stamp naming p's footprints and membership
// rules: a hash of the shape and of every tensor's subscript terms, as an
// integer-valued float64 that is never 0 and compares exactly.
func problemStamp(p loopnest.Problem) float64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		for i := range buf {
			buf[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(len(p.Shape))
	for _, size := range p.Shape {
		put(size)
	}
	put(len(p.Algo.Tensors))
	for _, t := range p.Algo.Tensors {
		put(len(t.Terms))
		for _, term := range t.Terms {
			put(len(term))
			for _, d := range term {
				put(d)
			}
		}
	}
	return float64(h.Sum64()>>12) + 1
}

// Footprinter reads one problem's footprints off its mappings' footprint
// blocks, and computes them when a block is stale or missing. The cost
// models and the map space share it, so every footprint of a mapping comes
// from one place.
type Footprinter struct {
	tensors []loopnest.Tensor
	stamp   float64
}

// NewFootprinter returns the Footprinter of problem p.
func NewFootprinter(p loopnest.Problem) Footprinter {
	return Footprinter{tensors: p.Algo.Tensors, stamp: problemStamp(p)}
}

// FootprintBuf is the workspace Footprints computes into when a mapping's
// block cannot be read. Its zero value is ready; it grows on first use and
// is reused after.
type FootprintBuf struct {
	fps  []float64
	tile []int
}

// Footprints returns every tensor's footprint in words at each on-chip
// level under m, indexed [level·nt + t]: m's block when its stamp is this
// problem's, otherwise computed into buf. It never writes m, so any number
// of goroutines may read one mapping at once. m must have one allocation
// per tensor at each on-chip level. The result is read-only and valid
// until m's tiling or buf changes.
func (f *Footprinter) Footprints(m *Mapping, buf *FootprintBuf) []float64 {
	if b := m.block(); b != nil && b[0] == f.stamp && len(b) == blockLen(len(f.tensors)) {
		return b[1:]
	}
	buf.fps = grow(buf.fps, arch.OnChipLevels*len(f.tensors))
	buf.tile = grow(buf.tile, len(m.Spatial))
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		f.fillLevel(m, buf.fps, level, allDims, nil, buf.tile)
	}
	return buf.fps
}

// allDims is the changed-dimension set of a change that touched every
// dimension.
const allDims = ^uint64(0)

// fillLevel writes into fps the footprints at level of the tensors whose
// dimension set (touches, nil for all) meets dims, computing the level's
// cumulative tile into tile (len(m.Spatial) long). Each footprint is the
// exact float64 of Tensor.Footprint.
func (f *Footprinter) fillLevel(m *Mapping, fps []float64, level arch.Level, dims uint64, touches []uint64, tile []int) {
	tile = m.CumulativeTileInto(tile, level)
	base := int(level) * len(f.tensors)
	for t := range f.tensors {
		if touches == nil || touches[t]&dims != 0 {
			fps[base+t] = float64(f.tensors[t].Footprint(tile))
		}
	}
}
