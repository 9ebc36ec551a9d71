package mapspace

import (
	"math"
	"math/rand"
	"sync"
)

// chainTable is the immutable set of factor chains of one dimension size:
// the chains in EnumerateChains order and each chain's log2 factors,
// computed once. One table per size is shared read-only by every Space —
// across goroutines — whose problem has a dimension of that size, so
// building a Space is a few map lookups, and projection and sampling never
// recompute a logarithm or filter into a fresh slice.
type chainTable struct {
	chains []FactorChain
	logs   [][4]float64 // logs[i] = chains[i].Logs()
}

// maxCachedChains bounds the process-wide table cache at 2^18 chains (64
// bytes each with their logs: 16 MiB). A server fed ever-new dimension
// sizes starts a fresh cache when it would overflow; Spaces keep the tables
// they already hold, and a rebuilt table is identical to the dropped one.
const maxCachedChains = 1 << 18

var chainCache struct {
	sync.Mutex
	tables map[int]*chainTable // by dimension size
	chains int                 // chains held by tables
}

// chainsFor returns the shared chain table of dimension size n, building it
// on first use.
func chainsFor(n int) *chainTable {
	chainCache.Lock()
	defer chainCache.Unlock()
	if t, ok := chainCache.tables[n]; ok {
		return t
	}
	chains := EnumerateChains(n)
	t := &chainTable{chains: chains, logs: make([][4]float64, len(chains))}
	for i, c := range chains {
		t.logs[i] = c.Logs()
	}
	if chainCache.tables == nil || chainCache.chains+len(chains) > maxCachedChains {
		chainCache.tables = map[int]*chainTable{}
		chainCache.chains = 0
	}
	chainCache.tables[n] = t
	chainCache.chains += len(chains)
	return t
}

// logDist returns the squared Euclidean distance between a chain's log2
// factors and the desired ones, the projection metric (paper §4.2:
// "nearest neighbor valid mappings based on euclidean distance"). Terms are
// summed in band order. Each term is non-negative, so the partial sum never
// decreases: once it reaches bound the chain cannot win a strict <
// comparison against bound, and summing stops there.
func logDist(logs, desired *[4]float64, bound float64) float64 {
	sum := 0.0
	for i := range logs {
		d := logs[i] - desired[i]
		sum += d * d
		if sum >= bound {
			break
		}
	}
	return sum
}

// nearest returns the chain minimizing logDist to desired among chains
// whose spatial factor is at most spatialCap (<= 0 means uncapped); ties go
// to the first in enumeration order. The boolean reports whether any chain
// qualified with a distance below +Inf.
func (t *chainTable) nearest(desired *[4]float64, spatialCap int) (FactorChain, bool) {
	best, bestDist := -1, math.Inf(1)
	for i := range t.chains {
		if spatialCap > 0 && t.chains[i][ChainSpatial] > spatialCap {
			continue
		}
		if d := logDist(&t.logs[i], desired, bestDist); d < bestDist {
			best, bestDist = i, d
		}
	}
	if best < 0 {
		return FactorChain{}, false
	}
	return t.chains[best], true
}

// draw returns a uniformly chosen chain among those whose spatial factor is
// at most spatialCap, in one rng.Intn draw over their count: the k-th
// eligible chain in enumeration order. It reports false, drawing nothing,
// when no chain qualifies.
func (t *chainTable) draw(rng *rand.Rand, spatialCap int) (FactorChain, bool) {
	n := 0
	for i := range t.chains {
		if t.chains[i][ChainSpatial] <= spatialCap {
			n++
		}
	}
	if n == 0 {
		return FactorChain{}, false
	}
	k := rng.Intn(n)
	for i := range t.chains {
		if t.chains[i][ChainSpatial] <= spatialCap {
			if k == 0 {
				return t.chains[i], true
			}
			k--
		}
	}
	panic("mapspace: eligible chain count changed during draw")
}
