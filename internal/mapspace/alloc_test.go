package mapspace

import (
	"math/rand"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/workload"
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
			s.tables[dim].nearest(&desired, 16, -1)
		}
	})
}

// The member-hint path and the filtered search shrinkOnce runs are
// allocation-free too.
func TestNearestHintAndFilteredAllocs(t *testing.T) {
	s := testSpaceMTTKRP(t)
	pinAllocs(t, "nearest with a member hint", 0, func() {
		for dim := 0; dim < s.NumDims(); dim++ {
			table := s.tables[dim]
			h := len(table.chains) / 2
			table.nearest(&table.logs[h], 16, h)
			table.argmin(&table.logs[h], table.groupsUpTo(4), 64, true)
		}
	})
}

// invalidChildren returns n invalid children of each kind Repair sees
// from the operators: Crossover recombinations (every chain a member, so
// projection takes the member-hint path) and Perturb moves.
func invalidChildren(tb testing.TB, s *Space, n int) (crossed, moved []Mapping) {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	for tries := 0; tries < 1000*n && (len(crossed) < n || len(moved) < n); tries++ {
		a, b := s.Random(rng), s.Random(rng)
		child := a.Clone()
		for dim := 0; dim < s.NumDims(); dim++ {
			if rng.Intn(2) == 1 {
				child.SetChain(dim, b.Chain(dim))
			}
		}
		if len(crossed) < n && s.verdict(&child).rule != valid {
			crossed = append(crossed, child)
		}
		child = a.Clone()
		s.moveFactorBetweenBands(rng, &child)
		if len(moved) < n && s.verdict(&child).rule != valid {
			moved = append(moved, child)
		}
	}
	if len(crossed) < n || len(moved) < n {
		tb.Fatal("too few invalid children found")
	}
	return crossed, moved
}

// Repair projects an invalid child into the child's own storage, to the
// mapping Project returns in fresh storage.
func TestRepairInvalidChildAllocs(t *testing.T) {
	for _, s := range []*Space{testSpaceCNN(t), testSpaceMTTKRP(t)} {
		crossed, moved := invalidChildren(t, s, 1)
		for _, bad := range []*Mapping{&crossed[0], &moved[0]} {
			want := s.Project(*bad)
			work := bad.Clone()
			pinAllocs(t, "Repair of an invalid child", 0, func() {
				bad.CloneInto(&work)
				work = s.Repair(work)
			})
			if work.String() != want.String() {
				t.Fatalf("in-place repair %s, projection %s", work.String(), want.String())
			}
		}
	}
}

// BenchmarkRepair measures Repair of invalid Crossover and Perturb
// children on the ResNet_Conv_4 problem of the root BenchmarkProjection:
// the member-hint path, where BenchmarkProjection measures Decode's.
func BenchmarkRepair(b *testing.B) {
	p, err := loopnest.NewCNNProblem("ResNet_Conv_4", 16, 256, 256, 14, 14, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(arch.Default(2), p)
	if err != nil {
		b.Fatal(err)
	}
	crossed, moved := invalidChildren(b, s, 64)
	for _, bench := range []struct {
		name     string
		children []Mapping
	}{{"crossover", crossed}, {"perturb", moved}} {
		b.Run(bench.name, func(b *testing.B) {
			work := bench.children[0].Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bench.children[i%len(bench.children)].CloneInto(&work)
				work = s.Repair(work)
			}
		})
	}
}

// The *Into operators reuse a shaped destination, so a searcher that keeps
// its candidates' storage breeds without allocating.
func TestIntoOperatorsAllocs(t *testing.T) {
	for _, s := range []*Space{testSpaceCNN(t), testSpaceMTTKRP(t)} {
		rng := rand.New(rand.NewSource(8))
		a, b := s.Random(rng), s.Random(rng)
		dst := a.Clone()
		pinAllocs(t, "PerturbInto", 0, func() { s.PerturbInto(rng, &a, &dst) })
		pinAllocs(t, "CrossoverInto", 0, func() { s.CrossoverInto(rng, &a, &b, &dst) })
		pinAllocs(t, "MutateInto in place", 0, func() { s.MutateInto(rng, &dst, 0.3, &dst) })
		pinAllocs(t, "CloneInto", 0, func() { b.CloneInto(&dst) })
		// What a cost model does next: read the footprints the operator's
		// check or projection left in the block, without computing them.
		var buf FootprintBuf
		for _, op := range []struct {
			name string
			run  func()
		}{
			{"PerturbInto", func() { s.PerturbInto(rng, &a, &dst) }},
			{"CrossoverInto", func() { s.CrossoverInto(rng, &a, &b, &dst) }},
			{"MutateInto in place", func() { s.MutateInto(rng, &dst, 0.3, &dst) }},
		} {
			pinAllocs(t, op.name+" then Footprints", 0, func() {
				op.run()
				readsBlock(t, s, &dst, &buf)
			})
		}
	}
}

// readsBlock fails t unless Footprints returns m's block itself.
func readsBlock(t *testing.T, s *Space, m *Mapping, buf *FootprintBuf) {
	t.Helper()
	if fps, blk := s.fp.Footprints(m, buf), m.block(); blk == nil || &fps[0] != &blk[1] {
		t.Fatal("Footprints computed an operator's result again instead of reading its block")
	}
}

// check keeps its tile in a stack array up to 16 dimensions and borrows
// the pooled workspace beyond that, so an inline einsum with more
// dimensions than any builtin still checks and perturbs without
// allocating.
func TestWideEinsumCheckAllocs(t *testing.T) {
	algo, err := workload.CompileInline(
		"O[a,b,c,d,e,f,g,h,i] += A[a,b,c,d,e,f,g,h+j,k,l,m] * B[i,j,k,l,m,n,o,p,q]")
	if err != nil {
		t.Fatal(err)
	}
	shape := make([]int, algo.NumDims())
	for d := range shape {
		shape[d] = 2
	}
	s, err := New(arch.Default(len(algo.Tensors)-1), loopnest.Problem{Algo: algo, Name: "wide", Shape: shape})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumDims() != 17 {
		t.Fatalf("%d dimensions, want 17", s.NumDims())
	}
	rng := rand.New(rand.NewSource(9))
	m := s.Random(rng)
	if err := s.IsMember(&m); err != nil {
		t.Fatal(err)
	}
	dst := m.Clone()
	var buf FootprintBuf
	pinAllocs(t, "verdict", 0, func() { s.verdict(&m) })
	pinAllocs(t, "PerturbInto", 0, func() { s.PerturbInto(rng, &m, &dst) })
	pinAllocs(t, "PerturbInto then Footprints", 0, func() {
		s.PerturbInto(rng, &m, &dst)
		readsBlock(t, s, &dst, &buf)
	})
}

// IsMember checks into a stack block up to 8 tensors and borrows the
// pooled workspace's beyond that: a 10-tensor einsum checks, perturbs and
// reads its block without allocating too.
func TestManyTensorCheckAllocs(t *testing.T) {
	algo, err := workload.CompileInline("O[a,b] += A[a,c] * B[c,b] * C[a] * D[b] * E[c] * F[a,b] * G[b,c] * H[a,c] * I[c]")
	if err != nil {
		t.Fatal(err)
	}
	if len(algo.Tensors) != 10 {
		t.Fatalf("%d tensors, want 10", len(algo.Tensors))
	}
	s, err := New(arch.Default(len(algo.Tensors)-1), loopnest.Problem{Algo: algo, Name: "many", Shape: []int{8, 6, 4}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	m := s.Random(rng)
	if err := s.IsMember(&m); err != nil {
		t.Fatal(err)
	}
	dst := m.Clone()
	var buf FootprintBuf
	pinAllocs(t, "IsMember", 0, func() {
		if err := s.IsMember(&m); err != nil {
			t.Fatal(err)
		}
	})
	pinAllocs(t, "PerturbInto then Footprints", 0, func() {
		s.PerturbInto(rng, &m, &dst)
		readsBlock(t, s, &dst, &buf)
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
		for i := s.NumDims(); i < len(vec); i++ {
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
			if s.verdict(c).rule == valid || s.IsMember(c) == nil {
				t.Fatal("corrupted mapping passed the validity check")
			}
			pinAllocs(t, "check of an invalid mapping", 0, func() { s.verdict(c) })
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
