package mapspace

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
)

// testSpaceCNN returns a small CNN map space used across the tests.
func testSpaceCNN(t testing.TB) *Space {
	t.Helper()
	p, err := loopnest.NewCNNProblem("test", 4, 16, 8, 14, 14, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(arch.Default(2), p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testSpaceMTTKRP(t testing.TB) *Space {
	t.Helper()
	p, err := loopnest.NewMTTKRPProblem("test", 64, 128, 256, 128)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(arch.Default(3), p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsInvalidInputs(t *testing.T) {
	p, err := loopnest.NewCNNProblem("t", 1, 2, 2, 4, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := arch.Default(2)
	bad.NumPEs = 0
	if _, err := New(bad, p); err == nil {
		t.Fatal("accepted invalid arch")
	}
	if _, err := New(arch.Default(2), loopnest.Problem{}); err == nil {
		t.Fatal("accepted invalid problem")
	}
}

func TestRandomMappingsAreMembers(t *testing.T) {
	for _, s := range []*Space{testSpaceCNN(t), testSpaceMTTKRP(t)} {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200; i++ {
			m := s.Random(rng)
			if err := s.IsMember(&m); err != nil {
				t.Fatalf("%s sample %d invalid: %v\n%s", s.Prob.Name, i, err, m.String())
			}
		}
	}
}

func TestRandomMappingsVaried(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(2))
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		m := s.Random(rng)
		seen[m.String()] = true
	}
	if len(seen) < 45 {
		t.Fatalf("only %d distinct mappings in 50 draws", len(seen))
	}
}

// RandomInto makes Random's draws and writes Random's mapping, block
// included, whether it reuses dst's storage or, for a dst of another
// space's shape, replaces it.
func TestRandomIntoMatchesRandom(t *testing.T) {
	cnn, mtt := testSpaceCNN(t), testSpaceMTTKRP(t)
	for _, s := range []*Space{cnn, mtt} {
		rngA, rngB := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
		other := cnn
		if s == cnn {
			other = mtt
		}
		dst := other.Random(rand.New(rand.NewSource(4)))
		for i := 0; i < 200; i++ {
			want := s.Random(rngA)
			s.RandomInto(rngB, &dst)
			if !reflect.DeepEqual(dst, want) || !reflect.DeepEqual(dst.block(), want.block()) {
				t.Fatalf("%s draw %d: RandomInto wrote\n%s\nRandom returned\n%s", s.Prob.Name, i, dst.String(), want.String())
			}
		}
		if rngA.Int63() != rngB.Int63() {
			t.Fatalf("%s: RandomInto's draws differ from Random's", s.Prob.Name)
		}
	}
}

func TestIsMemberCatchesViolations(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(3))
	base := s.Random(rng)

	breakers := map[string]func(m *Mapping){
		"bad product": func(m *Mapping) { m.Tile[arch.DRAM][0] *= 2 },
		"zero factor": func(m *Mapping) { m.Tile[arch.L1][1] = 0 },
		"spatial budget": func(m *Mapping) {
			m.Spatial[1] = 1024
			m.Tile[arch.DRAM][1] = 1
			m.Tile[arch.L1][1] = 1
			m.Tile[arch.L2][1] = 1
		},
		"bad order":      func(m *Mapping) { m.Order[arch.L2][0] = m.Order[arch.L2][1] },
		"alloc range":    func(m *Mapping) { m.Alloc[arch.L1][0] = -0.1 },
		"alloc NaN":      func(m *Mapping) { m.Alloc[arch.L2][1] = math.NaN() },
		"alloc sum":      func(m *Mapping) { m.Alloc[arch.L2] = []float64{0.9, 0.9, 0.9} },
		"missing alloc":  func(m *Mapping) { m.Alloc[arch.L1] = nil },
		"short tiles":    func(m *Mapping) { m.Tile[arch.L1] = m.Tile[arch.L1][:3] },
		"short spatial":  func(m *Mapping) { m.Spatial = m.Spatial[:2] },
		"short order":    func(m *Mapping) { m.Order[arch.L1] = m.Order[arch.L1][:2] },
		"footprint over": func(m *Mapping) { m.Alloc[arch.L1] = []float64{0, 0, 0} },
	}
	for name, breaker := range breakers {
		m := base.Clone()
		breaker(&m)
		if err := s.IsMember(&m); err == nil {
			t.Errorf("%s: violation not caught", name)
		}
	}
}

func TestMinimalMappingAlwaysValid(t *testing.T) {
	for _, s := range []*Space{testSpaceCNN(t), testSpaceMTTKRP(t)} {
		m := s.minimalMapping()
		if err := s.IsMember(&m); err != nil {
			t.Fatalf("minimal mapping invalid: %v", err)
		}
		if m.SpatialPEs() != 1 {
			t.Fatal("minimal mapping must use one PE")
		}
	}
}

func TestCumulativeTile(t *testing.T) {
	s := testSpaceMTTKRP(t)
	m := s.minimalMapping()
	// I = 64: put 2 in L1, 2 spatial, 4 in L2, 4 in DRAM.
	m.SetChain(0, FactorChain{2, 2, 4, 4})
	l1 := m.CumulativeTileInto(nil, arch.L1)
	l2 := m.CumulativeTileInto(nil, arch.L2)
	dram := m.CumulativeTileInto(nil, arch.DRAM)
	if l1[0] != 2 || l2[0] != 16 || dram[0] != 64 {
		t.Fatalf("cumulative tiles = %d/%d/%d, want 2/16/64", l1[0], l2[0], dram[0])
	}
}

func TestSpatialPEs(t *testing.T) {
	s := testSpaceMTTKRP(t)
	m := s.minimalMapping()
	m.SetChain(0, FactorChain{1, 8, 1, 8})
	m.SetChain(1, FactorChain{1, 16, 1, 8})
	if m.SpatialPEs() != 128 {
		t.Fatalf("SpatialPEs = %d, want 128", m.SpatialPEs())
	}
}

func TestCloneIndependence(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(4))
	m := s.Random(rng)
	c := m.Clone()
	c.Tile[arch.L1][0] = 99
	c.Order[arch.L2][0], c.Order[arch.L2][1] = c.Order[arch.L2][1], c.Order[arch.L2][0]
	c.Alloc[arch.L1][0] = 0.999
	c.Spatial[0] = 77
	if m.Tile[arch.L1][0] == 99 || m.Alloc[arch.L1][0] == 0.999 || m.Spatial[0] == 77 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestSizeLog10Magnitude(t *testing.T) {
	// The paper quotes ~1e25 for ResNet Conv_4 and ~1e19 for MTTKRP_0 as
	// map-space sizes; our Cartesian upper bound should be in that region
	// (within a handful of orders of magnitude) and must rank CNN > MTTKRP
	// per-problem complexity the same way.
	cnnProb, err := loopnest.NewCNNProblem("ResNet_Conv_4", 16, 256, 256, 14, 14, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cnnSpace, err := New(arch.Default(2), cnnProb)
	if err != nil {
		t.Fatal(err)
	}
	mttProb, err := loopnest.NewMTTKRPProblem("MTTKRP_0", 128, 1024, 4096, 2048)
	if err != nil {
		t.Fatal(err)
	}
	mttSpace, err := New(arch.Default(3), mttProb)
	if err != nil {
		t.Fatal(err)
	}
	cnnLog := cnnSpace.SizeLog10()
	mttLog := mttSpace.SizeLog10()
	if cnnLog < 18 || cnnLog > 40 {
		t.Fatalf("CNN map-space log10 = %v, expected huge (~25)", cnnLog)
	}
	if mttLog < 12 || mttLog > 35 {
		t.Fatalf("MTTKRP map-space log10 = %v", mttLog)
	}
	if cnnLog <= mttLog-3 {
		t.Fatalf("expected CNN space (%v) not drastically smaller than MTTKRP (%v)", cnnLog, mttLog)
	}
}

// Property: every random mapping's chains multiply to the problem shape and
// footprints fit allocations (redundant with IsMember but checked
// independently here).
func TestRandomMappingInvariantsProperty(t *testing.T) {
	s := testSpaceCNN(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := s.Random(rng)
		for dim, size := range s.Prob.Shape {
			if m.Chain(dim).Product() != size {
				return false
			}
		}
		if m.SpatialPEs() > s.Arch.NumPEs {
			return false
		}
		for level := arch.L1; level < arch.OnChipLevels; level++ {
			capWords := float64(s.Arch.LevelWords(level))
			for tIdx := range s.Prob.Algo.Tensors {
				if footprintWords(s, &m, level, tIdx) > m.Alloc[level][tIdx]*capWords+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// footprintWords returns tensor t's resident footprint in words at an
// on-chip level under mapping m.
func footprintWords(s *Space, m *Mapping, level arch.Level, t int) float64 {
	return float64(s.Prob.Algo.Tensors[t].Footprint(m.CumulativeTileInto(nil, level)))
}

func TestRepairAllocRaisesToFootprint(t *testing.T) {
	s := testSpaceCNN(t)
	m := s.minimalMapping()
	m.Alloc[arch.L1] = []float64{0, 0, 0}
	ws := getScratch()
	if !s.repairAlloc(ws, &m, s.fillStamped(ws, &m)[1:]) {
		t.Fatal("repairAlloc failed on feasible tiling")
	}
	if err := s.IsMember(&m); err != nil {
		t.Fatalf("repaired mapping invalid: %v", err)
	}
}

func TestTightenAlloc(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(77))
	m := s.Random(rng)
	if !s.TightenAlloc(&m) {
		t.Fatal("TightenAlloc failed on a valid mapping")
	}
	if err := s.IsMember(&m); err != nil {
		t.Fatalf("tightened mapping invalid: %v", err)
	}
	// Allocations must equal exact footprint shares.
	for level := arch.L1; level < arch.OnChipLevels; level++ {
		capWords := float64(s.Arch.LevelWords(level))
		for tIdx := range s.Prob.Algo.Tensors {
			want := footprintWords(s, &m, level, tIdx) / capWords
			if got := m.Alloc[level][tIdx]; got != want {
				t.Fatalf("level %s tensor %d alloc %v != footprint share %v", level, tIdx, got, want)
			}
		}
	}
}

func TestTightenAllocDetectsOverflow(t *testing.T) {
	s := testSpaceMTTKRP(t)
	m := s.Minimal()
	for dim, size := range s.Prob.Shape {
		m.SetChain(dim, FactorChain{size, 1, 1, 1}) // whole problem in L1
	}
	if s.TightenAlloc(&m) {
		t.Fatal("TightenAlloc accepted an over-capacity tiling")
	}
}
