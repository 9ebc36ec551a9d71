package mapspace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPerturbProducesValidNeighbors(t *testing.T) {
	for _, s := range []*Space{testSpaceCNN(t), testSpaceMTTKRP(t)} {
		rng := rand.New(rand.NewSource(31))
		m := s.Random(rng)
		changed := 0
		for i := 0; i < 100; i++ {
			n := s.Perturb(rng, &m)
			if err := s.IsMember(&n); err != nil {
				t.Fatalf("%s: perturbed mapping invalid: %v", s.Prob.Name, err)
			}
			if n.String() != m.String() {
				changed++
			}
			m = n
		}
		if changed < 60 {
			t.Fatalf("%s: only %d/100 perturbations changed the mapping", s.Prob.Name, changed)
		}
	}
}

func TestPerturbDoesNotMutateInput(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(32))
	m := s.Random(rng)
	snapshot := m.String()
	for i := 0; i < 20; i++ {
		s.Perturb(rng, &m)
	}
	if m.String() != snapshot {
		t.Fatal("Perturb mutated its input mapping")
	}
}

func TestCrossoverProducesValidChildren(t *testing.T) {
	for _, s := range []*Space{testSpaceCNN(t), testSpaceMTTKRP(t)} {
		rng := rand.New(rand.NewSource(33))
		for i := 0; i < 50; i++ {
			a := s.Random(rng)
			b := s.Random(rng)
			var child Mapping
			s.CrossoverInto(rng, &a, &b, &child)
			if err := s.IsMember(&child); err != nil {
				t.Fatalf("%s: crossover child invalid: %v", s.Prob.Name, err)
			}
		}
	}
}

func TestCrossoverMixesParents(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(34))
	a := s.Random(rng)
	b := s.Random(rng)
	fromA, fromB := 0, 0
	for i := 0; i < 30; i++ {
		var child Mapping
		s.CrossoverInto(rng, &a, &b, &child)
		for dim := range s.Prob.Shape {
			switch child.Chain(dim) {
			case a.Chain(dim):
				fromA++
			case b.Chain(dim):
				fromB++
			}
		}
	}
	if fromA == 0 || fromB == 0 {
		t.Fatalf("crossover never mixed: a=%d b=%d", fromA, fromB)
	}
}

func TestMutateRateZeroIsIdentity(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(35))
	m := s.Random(rng)
	var out Mapping
	s.MutateInto(rng, &m, 0, &out)
	if out.String() != m.String() {
		t.Fatal("rate-0 mutation changed the mapping")
	}
}

func TestMutateRateOneChanges(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(36))
	m := s.Random(rng)
	same := 0
	for i := 0; i < 20; i++ {
		var out Mapping
		s.MutateInto(rng, &m, 1, &out)
		if err := s.IsMember(&out); err != nil {
			t.Fatalf("mutated mapping invalid: %v", err)
		}
		if out.String() == m.String() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("rate-1 mutation left mapping unchanged %d/20 times", same)
	}
}

// Property: arbitrary chains of operator applications preserve validity.
func TestOperatorChainsStayValidProperty(t *testing.T) {
	s := testSpaceMTTKRP(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := s.Random(rng)
		b := s.Random(rng)
		for step := 0; step < 10; step++ {
			var child Mapping
			switch rng.Intn(3) {
			case 0:
				child = s.Perturb(rng, &a)
			case 1:
				s.CrossoverInto(rng, &a, &b, &child)
			case 2:
				s.MutateInto(rng, &a, 0.3, &child)
			}
			a = child
			if s.IsMember(&a) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRandomMapping(b *testing.B) {
	s := testSpaceCNN(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Random(rng)
	}
}

func BenchmarkPerturb(b *testing.B) {
	s := testSpaceCNN(b)
	rng := rand.New(rand.NewSource(1))
	m := s.Random(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = s.Perturb(rng, &m)
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	s := testSpaceCNN(b)
	rng := rand.New(rand.NewSource(1))
	m := s.Random(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec := s.Encode(&m)
		if _, err := s.Decode(vec); err != nil {
			b.Fatal(err)
		}
	}
}
