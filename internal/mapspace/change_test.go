package mapspace

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/workload"
)

// operatorMove applies one operator's move to child, a copy of the member
// parent (or, for crossover, of its first parent), and returns the change
// the operator hands to repair. op picks perturb (each of its four moves
// at random), crossover with the member other, or mutation at a rate.
func operatorMove(s *Space, rng *rand.Rand, op int, other, child *Mapping) change {
	switch op % 3 {
	case 0:
		return s.perturbMove(rng, child)
	case 1:
		return s.crossMove(rng, other, child)
	}
	rate := []float64{0.05, 0.3, 1}[rng.Intn(3)]
	ch, _ := s.mutateMove(rng, rate, child)
	return ch
}

// checkChanged compares, for one child, the operator-aware verdict with
// the full check's: same rule, level, index and value. When the tiling
// rules passed, the child's block must also hold exactly the footprints a
// fresh computation gives, under this space's stamp.
func checkChanged(s *Space, child *Mapping, ch change) error {
	want := s.verdict(child)
	got := s.check(child, ch, s.blockOf(child))
	if got != want {
		return fmt.Errorf("operator-aware verdict %+v, full check %+v (change %+v)\n%s", got, want, ch, child)
	}
	if got.rule == ruleSpatialPEs || !ch.trusted {
		return nil
	}
	blk := child.block()
	if blk[0] != s.fp.stamp {
		return fmt.Errorf("block stamp %v after a passed tiling check, want %v", blk[0], s.fp.stamp)
	}
	// The same mapping with its block cut off: Footprints computes afresh.
	bare := *child
	nt := s.NumTensors()
	bare.Alloc[arch.OnChipLevels-1] = child.Alloc[arch.OnChipLevels-1][:nt:nt]
	var buf FootprintBuf
	fresh := s.fp.Footprints(&bare, &buf)
	for i, fp := range blk[1:] {
		if fp != fresh[i] {
			return fmt.Errorf("block footprint %d = %v, fresh %v", i, fp, fresh[i])
		}
	}
	return nil
}

// For member parents of every registered workload, under every operator,
// the operator-aware check gives the full check's verdict, and the
// operators trust their member parents (so the short path is what runs).
func TestChangedCheckMatchesFullCheck(t *testing.T) {
	names, spaces := goldenSpaces(t)
	for i, s := range spaces {
		rng := rand.New(rand.NewSource(int64(i) + 41))
		a, b := s.Random(rng), s.Random(rng)
		child := a.Clone()
		trusted, invalid := 0, 0
		for step := 0; step < 300; step++ {
			op := rng.Intn(3)
			a.CloneInto(&child)
			ch := operatorMove(s, rng, op, &b, &child)
			if ch.trusted {
				trusted++
			}
			if err := checkChanged(s, &child, ch); err != nil {
				t.Fatalf("%s step %d op %d: %v", names[i], step, op, err)
			}
			if !s.repair(&child, ch) {
				invalid++
			}
			// Walk on: the repaired child (a stamped member) becomes a
			// parent, the old parent the crossover partner.
			a, b, child = child, a, b
		}
		if trusted != 300 {
			t.Fatalf("%s: %d of 300 operator changes trusted their member parent", names[i], trusted)
		}
		t.Logf("%s: %d of 300 children repaired", names[i], invalid)
	}
}

// FuzzChangedCheck drives the same comparison from arbitrary seeds,
// spaces, operators and walk lengths.
func FuzzChangedCheck(f *testing.F) {
	names, spaces := goldenSpaces(f)
	for i := range spaces {
		f.Add(int64(i), uint8(i), uint8(i%3), uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, space, op, walk uint8) {
		s := spaces[int(space)%len(spaces)]
		rng := rand.New(rand.NewSource(seed))
		a, b := s.Random(rng), s.Random(rng)
		for range walk % 16 {
			s.PerturbInto(rng, &b, &a)
			a, b = b, a
		}
		child := a.Clone()
		ch := operatorMove(s, rng, int(op), &b, &child)
		if !ch.trusted {
			t.Fatalf("%s: a member parent was not trusted", names[int(space)%len(spaces)])
		}
		if err := checkChanged(s, &child, ch); err != nil {
			t.Fatalf("%s: %v", names[int(space)%len(spaces)], err)
		}
	})
}

// A parent without a stamp gets the full check: a tiling written behind
// SetChain's back (here a broken factor product, stamp zeroed) is caught
// and repaired, where trusting the parent would let it through.
func TestUnstampedParentGetsFullCheck(t *testing.T) {
	for _, s := range []*Space{testSpaceCNN(t), testSpaceMTTKRP(t)} {
		rng := rand.New(rand.NewSource(43))
		for i := 0; i < 100; i++ {
			m := s.Random(rng)
			m.Tile[arch.DRAM][0] *= 2
			m.staleBlock()
			if s.trust(&m).trusted {
				t.Fatal("an unstamped parent was trusted")
			}
			var out Mapping
			switch i % 3 {
			case 0:
				s.PerturbInto(rng, &m, &out)
			case 1:
				b := s.Random(rng)
				s.CrossoverInto(rng, &m, &b, &out)
			case 2:
				s.MutateInto(rng, &m, 1, &out)
			}
			if err := s.IsMember(&out); err != nil {
				t.Fatalf("child %d of an unstamped non-member parent: %v", i, err)
			}
		}
		// A mapping built without a block (a literal, a decoded request) is
		// never trusted either, and its operators still return members.
		m := s.Random(rng)
		bare := Mapping{Tile: m.Tile, Spatial: m.Spatial, Order: m.Order}
		for l := range m.Alloc {
			bare.Alloc[l] = append([]float64(nil), m.Alloc[l]...)
		}
		if bare.block() != nil || s.trust(&bare).trusted {
			t.Fatal("a mapping without a block was trusted")
		}
		out := s.Perturb(rng, &bare)
		if err := s.IsMember(&out); err != nil {
			t.Fatal(err)
		}
	}
}

// A space beyond 64 dimensions cannot record a change in its bit set, so
// its operators always run the full check.
func TestWideSpaceGetsFullCheck(t *testing.T) {
	const d = 65
	idx := make([]string, d)
	for i := range idx {
		idx[i] = fmt.Sprintf("i%d", i)
	}
	// O[i0..i21] += A[i0..i42] * B[i22..i64]: a matrix product whose three
	// index groups have 21 or 22 dimensions each.
	expr := fmt.Sprintf("O[%s] += A[%s] * B[%s]",
		strings.Join(idx[:22], ","), strings.Join(idx[:43], ","), strings.Join(idx[22:], ","))
	algo, err := workload.CompileInline(expr)
	if err != nil {
		t.Fatal(err)
	}
	shape := make([]int, algo.NumDims())
	for i := range shape {
		shape[i] = 1
	}
	shape[0], shape[d-1] = 4, 6
	s, err := New(arch.Default(len(algo.Tensors)-1), loopnest.Problem{Algo: algo, Name: "wide", Shape: shape})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumDims() != d {
		t.Fatalf("%d dimensions, want %d", s.NumDims(), d)
	}
	rng := rand.New(rand.NewSource(44))
	m := s.Random(rng)
	if !s.stamped(&m) {
		t.Fatal("Random left its mapping unstamped")
	}
	if s.trust(&m).trusted {
		t.Fatal("a change was trusted in a space beyond 64 dimensions")
	}
	b := s.Random(rng)
	for i := 0; i < 200; i++ {
		var out Mapping
		switch i % 3 {
		case 0:
			s.PerturbInto(rng, &m, &out)
		case 1:
			s.CrossoverInto(rng, &m, &b, &out)
		case 2:
			s.MutateInto(rng, &m, 0.3, &out)
		}
		if err := s.IsMember(&out); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		m, b = out, m
	}
}
