// Package mapspace implements the algorithm-accelerator mapping space of
// the paper (§2.1): mappings, membership testing, uniform random sampling,
// projection of arbitrary points onto the valid space, perturbation and
// recombination operators for the black-box baselines, and the flat
// float-vector encoding consumed by the surrogate (§4.1.2, §5.5).
//
// A mapping assigns every problem dimension a four-band tile factorization
// (L1-temporal, spatial-across-PEs, L2-temporal, DRAM-temporal), a loop
// order per temporal level, and a buffer-bank allocation per tensor per
// on-chip level — the programmable attributes of the evaluated accelerator
// (§5.1.3).
package mapspace

import (
	"fmt"
	"strings"

	"mindmappings/internal/arch"
)

// Mapping is one point in a map space: a complete assignment to the
// accelerator's programmable attributes for one problem.
type Mapping struct {
	// Tile holds temporal tile factors indexed [level][dim] for levels
	// arch.L1, arch.L2, arch.DRAM. Together with Spatial, the per-dimension
	// factors multiply to the problem dimension size.
	Tile [arch.NumLevels][]int
	// Spatial is the per-dimension parallelism across PEs; the product over
	// dims may not exceed the PE count.
	Spatial []int
	// Order is the loop ordering per temporal level; Order[l] is a
	// permutation of dimension indices, outermost first.
	Order [arch.NumLevels][]int
	// Alloc is the fraction of buffer capacity allocated to each tensor at
	// each on-chip level, indexed [level][tensor]; per-level sums must not
	// exceed 1. In a mapping the map space built, Alloc[L2]'s capacity
	// beyond its length holds the footprint block (see footprint.go).
	Alloc [arch.OnChipLevels][]float64
}

// Clone returns a deep copy of the mapping. The copy's integer slices share
// one new backing array and its allocation slices another, each
// capacity-capped so an append to one never spills into the next; empty
// slices stay nil. A footprint block (see footprint.go) is copied with
// them, stamp included.
func (m *Mapping) Clone() Mapping {
	var out Mapping
	n := len(m.Spatial)
	for l := range m.Tile {
		n += len(m.Tile[l]) + len(m.Order[l])
	}
	ints := make([]int, 0, n)
	for l := range m.Tile {
		out.Tile[l], ints = carve(ints, m.Tile[l])
	}
	out.Spatial, ints = carve(ints, m.Spatial)
	for l := range m.Order {
		out.Order[l], ints = carve(ints, m.Order[l])
	}
	nf := 0
	for l := range m.Alloc {
		nf += len(m.Alloc[l])
	}
	blk := m.block()
	fracs := make([]float64, 0, nf+len(blk))
	for l := range m.Alloc {
		out.Alloc[l], fracs = carve(fracs, m.Alloc[l])
	}
	if blk != nil {
		// The last allocation slice ends the carved part; its capacity
		// reaches over the block appended after it.
		fracs = append(fracs, blk...)
		last := arch.OnChipLevels - 1
		out.Alloc[last] = fracs[nf-len(m.Alloc[last]) : nf]
	}
	return out
}

// CloneInto copies m into dst, reusing dst's slices when each already has
// the length of m's and allocating as Clone does otherwise. dst's
// footprint block takes m's, or turns stale when m has none. dst may be m
// itself but must not share storage with it in any other way.
func (m *Mapping) CloneInto(dst *Mapping) {
	if !sameShape(m, dst) {
		*dst = m.Clone()
		return
	}
	for l := range m.Tile {
		copy(dst.Tile[l], m.Tile[l])
		copy(dst.Order[l], m.Order[l])
	}
	copy(dst.Spatial, m.Spatial)
	for l := range m.Alloc {
		copy(dst.Alloc[l], m.Alloc[l])
	}
	if db := dst.block(); db != nil {
		if sb := m.block(); len(sb) == len(db) {
			copy(db, sb)
		} else {
			db[0] = 0
		}
	}
}

// sameShape reports whether every slice of a has the length of b's.
func sameShape(a, b *Mapping) bool {
	if len(a.Spatial) != len(b.Spatial) {
		return false
	}
	for l := range a.Tile {
		if len(a.Tile[l]) != len(b.Tile[l]) || len(a.Order[l]) != len(b.Order[l]) {
			return false
		}
	}
	for l := range a.Alloc {
		if len(a.Alloc[l]) != len(b.Alloc[l]) {
			return false
		}
	}
	return true
}

// carve appends src to buf, whose capacity must hold it, and returns the
// capacity-capped copy (nil for an empty src) and the extended buf.
func carve[T any](buf, src []T) ([]T, []T) {
	if len(src) == 0 {
		return nil, buf
	}
	start := len(buf)
	buf = append(buf, src...)
	return buf[start:len(buf):len(buf)], buf
}

// Chain returns dimension d's four-band factorization.
func (m *Mapping) Chain(d int) FactorChain {
	return FactorChain{
		ChainL1:      m.Tile[arch.L1][d],
		ChainSpatial: m.Spatial[d],
		ChainL2:      m.Tile[arch.L2][d],
		ChainDRAM:    m.Tile[arch.DRAM][d],
	}
}

// SetChain installs a four-band factorization for dimension d and marks
// the footprint block stale.
func (m *Mapping) SetChain(d int, c FactorChain) {
	m.Tile[arch.L1][d] = c[ChainL1]
	m.Spatial[d] = c[ChainSpatial]
	m.Tile[arch.L2][d] = c[ChainL2]
	m.Tile[arch.DRAM][d] = c[ChainDRAM]
	m.staleBlock()
}

// SpatialPEs returns the number of PEs the mapping uses: the product of all
// spatial factors.
func (m *Mapping) SpatialPEs() int {
	pes := 1
	for _, s := range m.Spatial {
		pes *= s
	}
	return pes
}

// CumulativeTileInto writes into dst (grown when too short, reused
// otherwise) the per-dimension data-tile sizes resident at the given level:
// at L1 the L1 temporal factors; at L2 additionally the spatial and L2
// factors (the shared buffer holds the tiles of all PEs); at DRAM the full
// problem shape.
func (m *Mapping) CumulativeTileInto(dst []int, level arch.Level) []int {
	d := len(m.Spatial)
	if cap(dst) < d {
		dst = make([]int, d)
	}
	dst = dst[:d]
	for i := 0; i < d; i++ {
		t := m.Tile[arch.L1][i]
		if level >= arch.L2 {
			t *= m.Spatial[i] * m.Tile[arch.L2][i]
		}
		if level >= arch.DRAM {
			t *= m.Tile[arch.DRAM][i]
		}
		dst[i] = t
	}
	return dst
}

// String renders the mapping compactly for logs and error messages.
func (m *Mapping) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tiles L1=%v sp=%v L2=%v DRAM=%v order L1=%v L2=%v DRAM=%v alloc L1=%s L2=%s",
		m.Tile[arch.L1], m.Spatial, m.Tile[arch.L2], m.Tile[arch.DRAM],
		m.Order[arch.L1], m.Order[arch.L2], m.Order[arch.DRAM],
		fmtFracs(m.Alloc[arch.L1]), fmtFracs(m.Alloc[arch.L2]))
	return b.String()
}

func fmtFracs(fs []float64) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = fmt.Sprintf("%.2f", f)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
