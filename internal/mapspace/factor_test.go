package mapspace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
)

func TestDivisors(t *testing.T) {
	cases := map[int][]int{
		1:  {1},
		12: {1, 2, 3, 4, 6, 12},
		13: {1, 13},
		16: {1, 2, 4, 8, 16},
	}
	for n, want := range cases {
		got := Divisors(n)
		if len(got) != len(want) {
			t.Fatalf("Divisors(%d) = %v, want %v", n, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Divisors(%d) = %v, want %v", n, got, want)
			}
		}
	}
	if Divisors(0) != nil {
		t.Fatal("Divisors(0) must be nil")
	}
}

func TestEnumerateChainsSmall(t *testing.T) {
	chains := EnumerateChains(4)
	// Ordered 4-way factorizations of 2^2: C(2+3,3) = 10.
	if len(chains) != 10 {
		t.Fatalf("chains(4) = %d, want 10", len(chains))
	}
	for _, c := range chains {
		if c.Product() != 4 {
			t.Fatalf("chain %v product %d != 4", c, c.Product())
		}
	}
}

func TestEnumerateChainsCount(t *testing.T) {
	// d4(12) = d4(2^2 * 3) = C(5,3) * C(4,3) = 10*4 = 40.
	if got := len(EnumerateChains(12)); got != 40 {
		t.Fatalf("chains(12) = %d, want 40", got)
	}
	if got := chainCount(12); got != 40 {
		t.Fatalf("chainCount(12) = %v, want 40", got)
	}
}

// chainCount is the closed form ∏ C(e+3, 3) over n's prime-power exponents.
func chainCount(n int) int {
	count := 1
	for p := 2; n > 1; p++ {
		e := 0
		for n%p == 0 {
			n /= p
			e++
		}
		count *= (e + 3) * (e + 2) * (e + 1) / 6
	}
	return count
}

func TestEnumerateChainsDistinct(t *testing.T) {
	seen := map[FactorChain]bool{}
	for _, c := range EnumerateChains(24) {
		if seen[c] {
			t.Fatalf("duplicate chain %v", c)
		}
		seen[c] = true
	}
}

// Property: every enumerated chain multiplies back to n, and the count
// matches the closed form, for arbitrary small n.
func TestEnumerateChainsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		chains := EnumerateChains(n)
		if len(chains) != chainCount(n) {
			return false
		}
		for _, c := range chains {
			if c.Product() != n {
				return false
			}
			for _, f := range c {
				if f < 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestChainLogs(t *testing.T) {
	c := FactorChain{1, 2, 4, 8}
	logs := c.Logs()
	for i, want := range []float64{0, 1, 2, 3} {
		if math.Abs(logs[i]-want) > 1e-12 {
			t.Fatalf("Logs = %v", logs)
		}
	}
}

func TestLogDistance(t *testing.T) {
	logs := FactorChain{2, 2, 2, 2}.Logs()
	inf := math.Inf(1)
	if d := logDist(&logs, &[4]float64{1, 1, 1, 1}, inf); d != 0 {
		t.Fatalf("distance to self = %v", d)
	}
	if d := logDist(&logs, &[4]float64{0, 1, 1, 1}, inf); math.Abs(d-1) > 1e-12 {
		t.Fatalf("distance = %v, want 1", d)
	}
	// Summing stops once the partial sum exceeds the bound: the first term
	// alone (4) already exceeds 1, so the full 16 is never reached.
	if d := logDist(&logs, &[4]float64{-1, -1, -1, -1}, 1); d != 4 {
		t.Fatalf("bounded distance = %v, want the first term 4", d)
	}
	// A partial sum that only reaches the bound keeps summing, so a chain
	// that ties the best is measured in full.
	if d := logDist(&logs, &[4]float64{-1, 1, 1, 1}, 4); d != 4 {
		t.Fatalf("distance tying the bound = %v, want the full 4", d)
	}
	if d := logDist(&logs, &[4]float64{-1, -1, 1, 1}, 4); d != 8 {
		t.Fatalf("distance past a tied partial sum = %v, want 8", d)
	}
}

func TestNearestChainExact(t *testing.T) {
	want := FactorChain{2, 4, 2, 1}
	logs := want.Logs()
	got, ok := chainsFor(16).nearest(&logs, 0, -1)
	if !ok || got != want {
		t.Fatalf("nearest = %v ok=%v, want %v", got, ok, want)
	}
}

func TestNearestChainSpatialCap(t *testing.T) {
	desired := FactorChain{1, 16, 1, 1}.Logs()
	got, ok := chainsFor(16).nearest(&desired, 4, -1)
	if !ok {
		t.Fatal("no chain under cap")
	}
	if got[ChainSpatial] > 4 {
		t.Fatalf("cap violated: %v", got)
	}
	// Should pick the largest allowed spatial factor, 4.
	if got[ChainSpatial] != 4 {
		t.Fatalf("nearest under cap = %v, want spatial 4", got)
	}
}

func TestNearestChainEmpty(t *testing.T) {
	if _, ok := (&chainTable{}).nearest(&[4]float64{}, 0, -1); ok {
		t.Fatal("nearest on an empty table must report !ok")
	}
}

// kernelSizes returns every dimension size of the Table-1 problems, the
// bench's wide sizes (32 to 4096), and a few edge sizes: the tables the
// nearest-chain kernels are checked on.
func kernelSizes(t *testing.T) []int {
	t.Helper()
	seen := map[int]bool{}
	sizes := []int{1, 7, 97, 224}
	sizes = append(sizes, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096)
	table1, err := loopnest.Table1Problems()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range table1 {
		sizes = append(sizes, p.Shape...)
	}
	out := sizes[:0]
	for _, n := range sizes {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// fullSumArgmin is the reference projection kernel: a linear scan over the
// chains in enumeration order, summing every term in band order and
// keeping strict improvements, so ties go to the first chain. keep filters
// the candidates.
func fullSumArgmin(table *chainTable, desired *[4]float64, keep func(c FactorChain) bool) int {
	best, bestDist := -1, math.Inf(1)
	for i, c := range table.chains {
		if !keep(c) {
			continue
		}
		sum := 0.0
		for b := range c {
			d := math.Log2(float64(c[b])) - desired[b]
			sum += d * d
		}
		if sum < bestDist {
			best, bestDist = i, sum
		}
	}
	return best
}

// The indexed kernel must pick exactly the chain the full-sum argmin picks
// — the first minimum in enumeration order — including on ties, under
// spatial caps, and with a member hint set whenever desired is a member
// chain's logs.
func TestNearestMatchesFullSumArgmin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range kernelSizes(t) {
		table := chainsFor(n)
		for trial := 0; trial < 1000; trial++ {
			var desired [4]float64
			hint := -1
			if trial%3 == 0 {
				// A member chain's own logs, as Repair asks for them.
				hint = rng.Intn(len(table.chains))
				desired = table.logs[hint]
			} else {
				for i := range desired {
					// Half-integer grid points make exact ties common, and
					// often land on a member chain's logs.
					desired[i] = float64(rng.Intn(13)-2) / 2
				}
				for i := range table.logs {
					if trial%3 == 1 && table.logs[i] == desired {
						hint = i
					}
				}
			}
			spatialCap := rng.Intn(20) - 2
			if trial%7 == 0 {
				spatialCap = 1 << rng.Intn(13)
			}
			want := fullSumArgmin(table, &desired, func(c FactorChain) bool {
				return spatialCap <= 0 || c[ChainSpatial] <= spatialCap
			})
			got, ok := table.nearest(&desired, spatialCap, hint)
			if ok != (want >= 0) || (ok && got != table.chains[want]) {
				t.Fatalf("n=%d desired=%v cap=%d hint=%d: nearest %v ok=%v, full-sum argmin %d",
					n, desired, spatialCap, hint, got, ok, want)
			}
		}
	}
}

// shrinkOnce's filtered search — spatial factor at most the current one (a
// group prefix), cumulative factor strictly below the current one (a
// filter) — must match a linear scan with the same filters.
func TestArgminFilteredMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range kernelSizes(t) {
		table := chainsFor(n)
		for trial := 0; trial < 200; trial++ {
			cur := table.chains[rng.Intn(len(table.chains))]
			var desired [4]float64
			if trial%2 == 0 {
				desired = cur.Logs()
			} else {
				for i := range desired {
					desired[i] = float64(rng.Intn(13)-2) / 2
				}
			}
			throughL2 := trial%4 < 2
			prod := func(c FactorChain) int {
				if throughL2 {
					return c[ChainL1] * c[ChainSpatial] * c[ChainL2]
				}
				return c[ChainL1]
			}
			want := fullSumArgmin(table, &desired, func(c FactorChain) bool {
				return c[ChainSpatial] <= cur[ChainSpatial] && prod(c) < prod(cur)
			})
			got := table.argmin(&desired, table.groupsUpTo(cur[ChainSpatial]), prod(cur), throughL2)
			if got != want {
				t.Fatalf("n=%d cur=%v desired=%v throughL2=%v: argmin %d, linear scan %d",
					n, cur, desired, throughL2, got, want)
			}
		}
	}
}

// shrinkOnceLinear is shrinkOnce as it was before the chain tables grew
// their search index: the same tensor and dimension choice, then a linear
// scan over every chain.
func shrinkOnceLinear(s *Space, m *Mapping, level arch.Level, logs [][4]float64) bool {
	tile := m.CumulativeTileInto(nil, level)
	nt := s.NumTensors()
	fps, order := make([]float64, nt), make([]int, nt)
	for t := range order {
		order[t] = t
		fps[t] = float64(s.Prob.Algo.Tensors[t].Footprint(tile))
	}
	sortStable(order, func(a, b int) bool { return fps[a] > fps[b] })
	for _, t := range order {
		bestDim, bestProd := -1, 1
		for _, dim := range s.Prob.Algo.Tensors[t].Dims {
			if p := bandProduct(m, level, dim); p > bestProd {
				bestProd, bestDim = p, dim
			}
		}
		if bestDim < 0 {
			continue
		}
		curSpatial := m.Spatial[bestDim]
		table := s.tables[bestDim]
		best := fullSumArgmin(table, &logs[bestDim], func(c FactorChain) bool {
			p := c[ChainL1]
			if level >= arch.L2 {
				p *= c[ChainSpatial] * c[ChainL2]
			}
			return c[ChainSpatial] <= curSpatial && p < bestProd
		})
		if best >= 0 {
			m.SetChain(bestDim, table.chains[best])
			return true
		}
	}
	return false
}

// Shrinking oversized tilings step by step, the indexed shrinkOnce and the
// linear one make the same replacement every time.
func TestShrinkOnceMatchesLinearScan(t *testing.T) {
	_, spaces := goldenSpaces(t)
	for si, s := range spaces {
		rng := rand.New(rand.NewSource(int64(si)))
		ws := getScratch()
		for trial := 0; trial < 10; trial++ {
			m := s.Random(rng)
			logs := make([][4]float64, s.NumDims())
			for dim := range logs {
				// Ask for large L1 and L2 tiles so both levels shrink.
				chains := s.tables[dim].chains
				c := chains[len(chains)-1-rng.Intn(min(3, len(chains)))]
				m.SetChain(dim, FactorChain{c[ChainDRAM], 1, c[ChainL1], c[ChainSpatial] * c[ChainL2]})
				logs[dim] = m.Chain(dim).Logs()
				logs[dim][ChainSpatial] += float64(rng.Intn(3))
			}
			for level := arch.L1; level < arch.OnChipLevels; level++ {
				for step := 0; step < 64; step++ {
					ref := m.Clone()
					fps, _ := s.levelFootprints(ws, &m, level)
					gotOK := s.shrinkOnce(ws, &m, level, logs, fps)
					wantOK := shrinkOnceLinear(s, &ref, level, logs)
					if gotOK != wantOK || m.String() != ref.String() {
						t.Fatalf("space %d level %v step %d: indexed %v %s, linear %v %s",
							si, level, step, gotOK, m.String(), wantOK, ref.String())
					}
					if !gotOK {
						break
					}
				}
			}
		}
		putScratch(ws)
	}
}

// indexOf inverts the enumeration for every member chain and rejects
// everything else.
func TestChainIndexOf(t *testing.T) {
	for _, n := range kernelSizes(t) {
		table := chainsFor(n)
		for i, c := range table.chains {
			if got := table.indexOf(c); got != i {
				t.Fatalf("n=%d: indexOf(%v) = %d, want %d", n, c, got, i)
			}
			for _, bad := range []FactorChain{
				{c[0] * 2, c[1], c[2], c[3]},
				{c[0], c[1], c[2], c[3] + 1},
				{0, c[1], c[2], c[3]},
				{c[0], 0, c[2], c[3]},
			} {
				if got := table.indexOf(bad); got != -1 {
					t.Fatalf("n=%d: indexOf(%v) = %d for a non-member", n, bad, got)
				}
			}
		}
	}
	if (&chainTable{}).indexOf(FactorChain{1, 1, 1, 1}) != -1 {
		t.Fatal("indexOf on an empty table must be -1")
	}
}

// draw must consume exactly one Intn over the eligible count and return
// the k-th eligible chain in enumeration order, as filtering into a slice
// and indexing it did.
func TestDrawMatchesFilteredIndex(t *testing.T) {
	for _, n := range append(kernelSizes(t), 12) {
		table := chainsFor(n)
		for _, spatialCap := range []int{0, 1, 2, 3, 8, 7, 64, 1 << 20} {
			var eligible []FactorChain
			for _, c := range table.chains {
				if c[ChainSpatial] <= spatialCap {
					eligible = append(eligible, c)
				}
			}
			a, b := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
			if len(eligible) == 0 {
				if _, ok := table.draw(a, spatialCap); ok {
					t.Fatalf("n=%d cap=%d: draw found a chain where none qualifies", n, spatialCap)
				}
			}
			for i := 0; i < 50 && len(eligible) > 0; i++ {
				got, ok := table.draw(a, spatialCap)
				if want := eligible[b.Intn(len(eligible))]; !ok || got != want {
					t.Fatalf("n=%d cap=%d draw %d: %v ok=%v, want %v", n, spatialCap, i, got, ok, want)
				}
			}
			if a.Int63() != b.Int63() {
				t.Fatalf("n=%d cap=%d: draw consumed a different RNG stream", n, spatialCap)
			}
		}
	}
	if _, ok := (&chainTable{}).draw(rand.New(rand.NewSource(1)), 4); ok {
		t.Fatal("draw on an empty table must report !ok")
	}
}

func TestSmallestPrimeFactor(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 9: 3, 15: 3, 49: 7, 97: 97}
	for n, want := range cases {
		if got := smallestPrimeFactor(n); got != want {
			t.Fatalf("spf(%d) = %d, want %d", n, got, want)
		}
	}
}
