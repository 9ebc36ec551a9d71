package mapspace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
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
	// Summing stops once the partial sum reaches the bound: the first term
	// alone (4) already exceeds 1, so the full 16 is never reached.
	if d := logDist(&logs, &[4]float64{-1, -1, -1, -1}, 1); d != 4 {
		t.Fatalf("bounded distance = %v, want the first term 4", d)
	}
}

func TestNearestChainExact(t *testing.T) {
	want := FactorChain{2, 4, 2, 1}
	logs := want.Logs()
	got, ok := chainsFor(16).nearest(&logs, 0)
	if !ok || got != want {
		t.Fatalf("nearest = %v ok=%v, want %v", got, ok, want)
	}
}

func TestNearestChainSpatialCap(t *testing.T) {
	desired := FactorChain{1, 16, 1, 1}.Logs()
	got, ok := chainsFor(16).nearest(&desired, 4)
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
	if _, ok := (&chainTable{}).nearest(&[4]float64{}, 0); ok {
		t.Fatal("nearest on an empty table must report !ok")
	}
}

// The bounded kernel must pick exactly the chain a full-sum argmin with a
// strict < picks — the first minimum in enumeration order — including on
// ties and under spatial caps.
func TestNearestMatchesFullSumArgmin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 7, 16, 96, 224, 4096} {
		table := chainsFor(n)
		for trial := 0; trial < 200; trial++ {
			var desired [4]float64
			for i := range desired {
				// Half-integer grid points make exact ties common.
				desired[i] = float64(rng.Intn(13)-2) / 2
			}
			spatialCap := rng.Intn(20) - 2
			want, wantOK := -1, false
			bestDist := math.Inf(1)
			for i, c := range table.chains {
				if spatialCap > 0 && c[ChainSpatial] > spatialCap {
					continue
				}
				sum := 0.0
				for b := range c {
					d := math.Log2(float64(c[b])) - desired[b]
					sum += d * d
				}
				if sum < bestDist {
					want, wantOK, bestDist = i, true, sum
				}
			}
			got, ok := table.nearest(&desired, spatialCap)
			if ok != wantOK || (ok && got != table.chains[want]) {
				t.Fatalf("n=%d desired=%v cap=%d: nearest %v ok=%v, full-sum argmin %v",
					n, desired, spatialCap, got, ok, table.chains[want])
			}
		}
	}
}

// draw must consume exactly one Intn over the eligible count and return
// the k-th eligible chain in enumeration order, as filtering into a slice
// and indexing it did.
func TestDrawMatchesFilteredIndex(t *testing.T) {
	for _, n := range []int{1, 12, 96, 4096} {
		table := chainsFor(n)
		for _, spatialCap := range []int{1, 2, 3, 8, 1 << 20} {
			var eligible []FactorChain
			for _, c := range table.chains {
				if c[ChainSpatial] <= spatialCap {
					eligible = append(eligible, c)
				}
			}
			a, b := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
			for i := 0; i < 50; i++ {
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
