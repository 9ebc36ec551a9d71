package mapspace

import (
	"math/rand"
	"testing"
)

// raceEnabled is set by race_test.go: the race detector makes sync.Pool
// drop a quarter of its items, so the pooled workspace re-allocates and the
// allocation pins below do not hold under -race.
var raceEnabled bool

// mappingAllocs is what every returned Mapping costs: one backing array for
// its tile, spatial and order slices and one for its allocations.
const mappingAllocs = 2

func pinAllocs(t *testing.T, what string, want float64, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	if got := testing.AllocsPerRun(200, f); got != want {
		t.Fatalf("%s: %v allocs per call, want %v", what, got, want)
	}
}

func TestNearestChainAllocs(t *testing.T) {
	s := testSpaceMTTKRP(t)
	desired := [4]float64{1.3, 2.7, 0.4, 3.9}
	pinAllocs(t, "nearest", 0, func() {
		for dim := 0; dim < s.NumDims(); dim++ {
			s.tables[dim].nearest(&desired, 16)
		}
	})
}

func TestDrawAllocs(t *testing.T) {
	s := testSpaceMTTKRP(t)
	rng := rand.New(rand.NewSource(1))
	pinAllocs(t, "draw", 0, func() {
		for dim := 0; dim < s.NumDims(); dim++ {
			s.tables[dim].draw(rng, 16)
		}
	})
}

func TestRandomAllocs(t *testing.T) {
	for _, s := range []*Space{testSpaceCNN(t), testSpaceMTTKRP(t)} {
		rng := rand.New(rand.NewSource(1))
		pinAllocs(t, "Random", mappingAllocs, func() { s.Random(rng) })
	}
}

func TestDecodeAllocs(t *testing.T) {
	for _, s := range []*Space{testSpaceCNN(t), testSpaceMTTKRP(t)} {
		rng := rand.New(rand.NewSource(2))
		m := s.Random(rng)
		vec := s.Encode(&m)
		for i := s.PIDLen(); i < len(vec); i++ {
			vec[i] += 3 * rng.NormFloat64() // large enough to need shrinking
		}
		pinAllocs(t, "Decode", mappingAllocs, func() {
			if _, err := s.Decode(vec); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestIsMemberAllocs(t *testing.T) {
	for _, s := range []*Space{testSpaceCNN(t), testSpaceMTTKRP(t)} {
		m := s.Random(rand.New(rand.NewSource(3)))
		pinAllocs(t, "IsMember", 0, func() {
			if err := s.IsMember(&m); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Repair and Perturb test every candidate with check: an invalid one must
// cost no allocations either, only IsMember formats a message.
func TestCheckInvalidAllocs(t *testing.T) {
	for _, s := range []*Space{testSpaceCNN(t), testSpaceMTTKRP(t)} {
		m := s.Random(rand.New(rand.NewSource(4)))
		bad := m.Clone()
		bad.Tile[0][0] *= 2 // breaks the dimension's factor product
		over := m.Clone()
		over.Alloc[0][0] = 2 // out of [0,1]
		for _, c := range []*Mapping{&bad, &over} {
			if s.check(c).rule == valid || s.IsMember(c) == nil {
				t.Fatal("corrupted mapping passed the validity check")
			}
			pinAllocs(t, "check of an invalid mapping", 0, func() { s.check(c) })
		}
	}
}

func TestCloneAllocs(t *testing.T) {
	s := testSpaceCNN(t)
	m := s.Random(rand.New(rand.NewSource(4)))
	pinAllocs(t, "Clone", mappingAllocs, func() { m.Clone() })
}

// isPermutation's bitset spills to the heap only beyond 64 dimensions.
func TestIsPermutationWide(t *testing.T) {
	for _, n := range []int{0, 1, 64, 65, 130} {
		p := make([]int, n)
		for i := range p {
			p[i] = n - 1 - i
		}
		if !isPermutation(p, n) {
			t.Fatalf("n=%d: reversed identity rejected", n)
		}
		if n < 2 {
			continue
		}
		p[0] = p[n-1] // duplicate the last entry
		if isPermutation(p, n) {
			t.Fatalf("n=%d: duplicate accepted", n)
		}
		p[0] = n // out of range
		if isPermutation(p, n) {
			t.Fatalf("n=%d: out-of-range entry accepted", n)
		}
	}
}
