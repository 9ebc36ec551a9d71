package mapspace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mindmappings/internal/arch"
)

func TestProjectIdentityOnValid(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		m := s.Random(rng)
		p := s.Project(m)
		if err := s.IsMember(&p); err != nil {
			t.Fatalf("projection of valid mapping invalid: %v", err)
		}
		// Tiling and orders of an already-valid mapping must survive
		// projection exactly.
		for dim := range s.Prob.Shape {
			if p.Chain(dim) != m.Chain(dim) {
				t.Fatalf("projection changed chain of valid mapping: %v -> %v",
					m.Chain(dim), p.Chain(dim))
			}
		}
		for l := arch.L1; l < arch.NumLevels; l++ {
			for i := range p.Order[l] {
				if p.Order[l][i] != m.Order[l][i] {
					t.Fatalf("projection changed order of valid mapping")
				}
			}
		}
	}
}

func TestProjectRepairsBadProducts(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(12))
	m := s.Random(rng)
	m.Tile[arch.DRAM][2] *= 3 // break factorization of dim C
	p := s.Project(m)
	if err := s.IsMember(&p); err != nil {
		t.Fatalf("projection invalid: %v", err)
	}
}

func TestProjectRepairsSpatialBudget(t *testing.T) {
	s := testSpaceMTTKRP(t)
	m := s.minimalMapping()
	// Demand far more parallelism than 256 PEs.
	m.SetChain(0, FactorChain{1, 64, 1, 1})
	m.Tile[arch.DRAM][0] = 1
	m.SetChain(1, FactorChain{1, 128, 1, 1})
	m.SetChain(2, FactorChain{1, 256, 1, 1})
	p := s.Project(m)
	if err := s.IsMember(&p); err != nil {
		t.Fatalf("projection invalid: %v", err)
	}
	if p.SpatialPEs() > s.Arch.NumPEs {
		t.Fatalf("projection kept %d PEs", p.SpatialPEs())
	}
}

func TestProjectRepairsOversizedTiles(t *testing.T) {
	s := testSpaceMTTKRP(t)
	m := s.minimalMapping()
	// Whole problem in L1 (64*128*256*128 words >> 32K words).
	for dim, size := range s.Prob.Shape {
		m.SetChain(dim, FactorChain{size, 1, 1, 1})
	}
	p := s.Project(m)
	if err := s.IsMember(&p); err != nil {
		t.Fatalf("projection invalid: %v", err)
	}
}

func TestProjectGarbageOrdersAndAllocs(t *testing.T) {
	s := testSpaceCNN(t)
	m := s.minimalMapping()
	m.Order[arch.L1] = []int{0, 0, 0, 0, 0, 0, 0}
	m.Order[arch.L2] = nil
	m.Alloc[arch.L1] = []float64{math.NaN(), -5, 7}
	m.Alloc[arch.L2] = nil
	p := s.Project(m)
	if err := s.IsMember(&p); err != nil {
		t.Fatalf("projection invalid: %v", err)
	}
}

// Property: projecting arbitrary random garbage always yields a valid
// member — the core guarantee Phase 2 relies on at every descent step.
func TestProjectGarbageProperty(t *testing.T) {
	s := testSpaceCNN(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := s.Random(rng)
		// Randomly corrupt several fields.
		for k := 0; k < 5; k++ {
			dim := rng.Intn(s.NumDims())
			switch rng.Intn(4) {
			case 0:
				m.Tile[arch.Level(rng.Intn(3))][dim] = rng.Intn(500)
			case 1:
				m.Spatial[dim] = rng.Intn(4096)
			case 2:
				m.Order[arch.Level(rng.Intn(3))][dim] = rng.Intn(20) - 5
			case 3:
				level := arch.Level(rng.Intn(2))
				tensor := rng.Intn(s.NumTensors())
				m.Alloc[level][tensor] = rng.Float64()*4 - 2
			}
		}
		p := s.Project(m)
		return s.IsMember(&p) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRanksToPerm(t *testing.T) {
	perm := func(ranks ...float64) []int {
		p := make([]int, len(ranks))
		ranksToPerm(p, ranks)
		return p
	}
	if p := perm(2, 0, 1); p[0] != 1 || p[1] != 2 || p[2] != 0 {
		t.Fatalf("ranksToPerm = %v", p)
	}
	// Ties resolve by dimension index.
	if p := perm(1, 1, 0); p[0] != 2 || p[1] != 0 || p[2] != 1 {
		t.Fatalf("ranksToPerm ties = %v", p)
	}
	// NaN scores count as 0.
	if p := perm(1, math.NaN(), -1); p[0] != 2 || p[1] != 1 || p[2] != 0 {
		t.Fatalf("ranksToPerm NaN = %v", p)
	}
	if got := perm(); len(got) != 0 {
		t.Fatal("empty ranks must give empty perm")
	}
}

func TestRepairLeavesValidUntouched(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(13))
	m := s.Random(rng)
	r := s.Repair(m.Clone())
	if r.String() != m.String() {
		t.Fatalf("Repair modified a valid mapping:\n%s\n%s", m.String(), r.String())
	}
}
