package mapspace

import (
	"math"
	"math/rand"
	"slices"
	"sync"
)

// chainTable is the immutable set of factor chains of one dimension size:
// the chains in EnumerateChains order and each chain's log2 factors,
// computed once. One table per size is shared read-only by every Space —
// across goroutines — whose problem has a dimension of that size, so
// building a Space is a few map lookups, and projection and sampling never
// recompute a logarithm or filter into a fresh slice.
//
// Two indexes over the chains make nearest-chain search and capped
// sampling sublinear without changing a single answer:
//
//   - groups/byL1/l1: the chains grouped by spatial factor, groups in
//     ascending order, so a spatial cap is a prefix of the groups; inside
//     each group the chains ascend by L1 factor, ties in enumeration
//     order (which ascends by L2 factor there).
//   - blocks/eligible: in enumeration order the chains with one L1 factor
//     form a block whose spatial factors ascend, so the chains under any
//     cap are a prefix of every block, and counting them per block turns
//     "the k-th eligible chain" into a binary search.
type chainTable struct {
	chains []FactorChain
	logs   [][4]float64 // logs[i] = chains[i].Logs()

	groups []chainGroup
	byL1   []int32   // chain indices, group after group
	l1     []float64 // l1[j] = logs[byL1[j]][ChainL1]

	blocks   []int32 // blocks[a]: first chain of the a-th L1 block; then len(chains)
	eligible []int32 // row g, column a: chains in blocks before a within groups[:g+1]
}

// chainGroup is the chains of one spatial factor: byL1[lo:hi].
type chainGroup struct {
	spatial int
	log     float64 // bit-equal to every member's logs[ChainSpatial]
	lo, hi  int32
}

// maxCachedChains bounds the process-wide table cache at 2^18 chains (at
// most 84 bytes each with their logs and both indexes — 76 for the chain,
// its logs and its byL1/l1 slots, up to 8 for its share of the eligible
// counts, which hold d(n)·(d(n)+1) entries for a size n with d(n) divisors
// and at least d(n)² chains: 21 MiB). A server fed ever-new dimension
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
	t := newChainTable(n)
	if chainCache.tables == nil || chainCache.chains+len(t.chains) > maxCachedChains {
		chainCache.tables = map[int]*chainTable{}
		chainCache.chains = 0
	}
	chainCache.tables[n] = t
	chainCache.chains += len(t.chains)
	return t
}

func newChainTable(n int) *chainTable {
	chains := EnumerateChains(n)
	t := &chainTable{
		chains: chains,
		logs:   make([][4]float64, len(chains)),
		byL1:   make([]int32, len(chains)),
		l1:     make([]float64, len(chains)),
	}
	for i, c := range chains {
		t.logs[i] = c.Logs()
	}
	if len(chains) == 0 {
		return t
	}

	// Both the spatial and the L1 factors range over the divisors of n.
	divs := Divisors(n)
	group := make([]int, len(chains))
	t.groups = make([]chainGroup, len(divs))
	for i, c := range chains {
		g, _ := slices.BinarySearch(divs, c[ChainSpatial])
		group[i] = g
		t.groups[g].hi++
	}
	at := int32(0)
	for g := range t.groups {
		size := t.groups[g].hi
		t.groups[g] = chainGroup{spatial: divs[g], log: math.Log2(float64(divs[g])), lo: at, hi: at}
		at += size
	}
	for i := range chains {
		grp := &t.groups[group[i]]
		t.byL1[grp.hi] = int32(i)
		grp.hi++
	}
	for _, grp := range t.groups {
		slices.SortStableFunc(t.byL1[grp.lo:grp.hi], func(a, b int32) int {
			return chains[a][ChainL1] - chains[b][ChainL1]
		})
	}
	for j, i := range t.byL1 {
		t.l1[j] = t.logs[i][ChainL1]
	}

	// Per block, count the chains of each group, then accumulate over
	// groups (a cap admits groups[:g+1]) and over blocks.
	w := len(divs) + 1
	t.blocks = make([]int32, 0, w)
	t.eligible = make([]int32, len(t.groups)*w)
	for i, c := range chains {
		if i == 0 || c[ChainL1] != chains[i-1][ChainL1] {
			t.blocks = append(t.blocks, int32(i))
		}
		t.eligible[group[i]*w+len(t.blocks)]++
	}
	t.blocks = append(t.blocks, int32(len(chains)))
	for g := 1; g < len(t.groups); g++ {
		for a := 1; a < w; a++ {
			t.eligible[g*w+a] += t.eligible[(g-1)*w+a]
		}
	}
	for g := range t.groups {
		for a := 1; a < w; a++ {
			t.eligible[g*w+a] += t.eligible[g*w+a-1]
		}
	}
	return t
}

// groupsUpTo returns how many groups have a spatial factor of at most
// spatialCap: the groups[:n] prefix a cap admits.
func (t *chainTable) groupsUpTo(spatialCap int) int {
	lo, hi := 0, len(t.groups)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.groups[mid].spatial <= spatialCap {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// indexOf returns c's enumeration index, or -1 when c is not a chain of
// this table.
func (t *chainTable) indexOf(c FactorChain) int {
	g := t.groupsUpTo(c[ChainSpatial]) - 1
	if g < 0 || t.groups[g].spatial != c[ChainSpatial] {
		return -1
	}
	members := t.byL1[t.groups[g].lo:t.groups[g].hi]
	lo, hi := 0, len(members)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		m := &t.chains[members[mid]]
		if m[ChainL1] < c[ChainL1] || (m[ChainL1] == c[ChainL1] && m[ChainL2] < c[ChainL2]) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(members) && t.chains[members[lo]] == c {
		return int(members[lo])
	}
	return -1
}

// logDist returns the squared Euclidean distance between a chain's log2
// factors and the desired ones, the projection metric (paper §4.2:
// "nearest neighbor valid mappings based on euclidean distance"). Terms are
// summed in band order. Each term is non-negative, so the partial sum never
// decreases: once it exceeds bound the chain can neither beat nor tie
// bound, and summing stops there. A result at most bound is the full sum.
func logDist(logs, desired *[4]float64, bound float64) float64 {
	sum := 0.0
	for i := range logs {
		d := logs[i] - desired[i]
		sum += d * d
		if sum > bound {
			break
		}
	}
	return sum
}

// nearest returns the chain minimizing logDist to desired among chains
// whose spatial factor is at most spatialCap (<= 0 means uncapped); ties go
// to the first in enumeration order. The boolean reports whether any chain
// qualified with a distance below +Inf. A hint >= 0 promises that desired
// is exactly chain hint's logs: at distance 0, which no other chain
// reaches, it is the answer whenever it fits the cap.
func (t *chainTable) nearest(desired *[4]float64, spatialCap, hint int) (FactorChain, bool) {
	ng := len(t.groups)
	if spatialCap > 0 {
		if hint >= 0 && t.chains[hint][ChainSpatial] > spatialCap {
			hint = -1
		}
		ng = t.groupsUpTo(spatialCap)
	}
	if hint >= 0 {
		return t.chains[hint], true
	}
	i := t.argmin(desired, ng, 0, false)
	if i < 0 {
		return FactorChain{}, false
	}
	return t.chains[i], true
}

// argmin returns the enumeration index of the chain nearest desired among
// groups[:ng] — the first in enumeration order among equals, exactly what
// a linear scan keeping strict improvements returns — or -1 when none
// qualifies. When below > 0 it only considers chains whose cumulative
// factor (L1, times spatial and L2 when throughL2) is below it.
//
// Pruning is exact. The full distance is at least each of its terms
// (rounding is monotone and the terms are non-negative), every chain of a
// group shares its spatial term, and inside a group the L1 term grows
// outward from the desired L1 log. Groups are visited nearest first and a
// direction stops only once its term strictly exceeds the best distance,
// so a chain that could tie the best is always compared.
func (t *chainTable) argmin(desired *[4]float64, ng, below int, throughL2 bool) int {
	best, bestDist := -1, math.Inf(1)
	want := desired[ChainSpatial]
	up := 0 // first group whose spatial log is at least the desired one
	for hi := ng; up < hi; {
		mid := int(uint(up+hi) >> 1)
		if t.groups[mid].log < want {
			up = mid + 1
		} else {
			hi = mid
		}
	}
	down := up - 1
	for down >= 0 || up < ng {
		g := up
		if up >= ng || (down >= 0 && sq(t.groups[down].log-want) < sq(t.groups[up].log-want)) {
			g = down
		}
		if sq(t.groups[g].log-want) > bestDist {
			break // the other direction's next group is no nearer
		}
		if g == up {
			up++
		} else {
			down--
		}
		best, bestDist = t.scanGroup(&t.groups[g], desired, below, throughL2, best, bestDist)
	}
	return best
}

// scanGroup runs argmin's search inside one group, outward from the
// desired L1 log in both directions.
func (t *chainTable) scanGroup(grp *chainGroup, desired *[4]float64, below int, throughL2 bool, best int, bestDist float64) (int, float64) {
	members, l1 := t.byL1[grp.lo:grp.hi], t.l1[grp.lo:grp.hi]
	want := desired[ChainL1]
	mid, hi := 0, len(l1)
	for mid < hi {
		h := int(uint(mid+hi) >> 1)
		if l1[h] < want {
			mid = h + 1
		} else {
			hi = h
		}
	}
	for j := mid; j < len(l1) && sq(l1[j]-want) <= bestDist; j++ {
		best, bestDist = t.consider(int(members[j]), desired, below, throughL2, best, bestDist)
	}
	for j := mid - 1; j >= 0 && sq(l1[j]-want) <= bestDist; j-- {
		best, bestDist = t.consider(int(members[j]), desired, below, throughL2, best, bestDist)
	}
	return best, bestDist
}

// consider returns chain i and its distance when it qualifies and beats
// the best so far — or ties it at a lower enumeration index — and the best
// so far otherwise.
func (t *chainTable) consider(i int, desired *[4]float64, below int, throughL2 bool, best int, bestDist float64) (int, float64) {
	if below > 0 {
		c := &t.chains[i]
		p := c[ChainL1]
		if throughL2 {
			p *= c[ChainSpatial] * c[ChainL2]
		}
		if p >= below {
			return best, bestDist
		}
	}
	if d := logDist(&t.logs[i], desired, bestDist); d < bestDist || (d == bestDist && i < best) {
		return i, d
	}
	return best, bestDist
}

func sq(x float64) float64 { return x * x }

// draw returns a uniformly chosen chain among those whose spatial factor is
// at most spatialCap, in one rng.Intn draw over their count: the k-th
// eligible chain in enumeration order. It reports false, drawing nothing,
// when no chain qualifies.
func (t *chainTable) draw(rng *rand.Rand, spatialCap int) (FactorChain, bool) {
	ng := t.groupsUpTo(spatialCap)
	if ng == 0 {
		return FactorChain{}, false
	}
	w := len(t.blocks)
	row := t.eligible[(ng-1)*w : ng*w]
	k := int32(rng.Intn(int(row[w-1])))
	a, hi := 0, w-1 // row[a] <= k < row[hi]
	for hi-a > 1 {
		mid := int(uint(a+hi) >> 1)
		if row[mid] <= k {
			a = mid
		} else {
			hi = mid
		}
	}
	return t.chains[t.blocks[a]+k-row[a]], true
}
