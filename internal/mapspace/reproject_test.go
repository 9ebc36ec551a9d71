package mapspace

import (
	"math/rand"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
)

// TestReprojectSameShapeKeepsStructure pins that re-projecting a valid
// mapping into its own space is structure-preserving: the on-chip tiling
// and loop orders survive, only the DRAM band is (re)derived.
func TestReprojectSameShapeKeepsStructure(t *testing.T) {
	s := testSpaceCNN(t)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 20; i++ {
		m := s.Random(rng)
		r := s.Reproject(&m)
		if err := s.IsMember(&r); err != nil {
			t.Fatalf("reprojection invalid: %v", err)
		}
		for dim := range s.Prob.Shape {
			if r.Chain(dim) != m.Chain(dim) {
				t.Fatalf("dim %d chain changed: %v -> %v", dim, m.Chain(dim), r.Chain(dim))
			}
		}
		for l := arch.L1; l < arch.NumLevels; l++ {
			for p := range r.Order[l] {
				if r.Order[l][p] != m.Order[l][p] {
					t.Fatalf("order changed at level %v", l)
				}
			}
		}
	}
}

// TestReprojectAcrossShapes is the atlas warm-start contract: a donor
// mapping solved for one problem shape re-projects into a differently
// shaped space of the same algorithm as a valid member whose on-chip
// structure follows the donor where the target's divisor structure allows.
func TestReprojectAcrossShapes(t *testing.T) {
	donorProb, err := loopnest.NewConv1DProblem("donor", 1024, 5)
	if err != nil {
		t.Fatal(err)
	}
	targetProb, err := loopnest.NewConv1DProblem("target", 4096, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Default(2)
	donorSpace, err := New(a, donorProb)
	if err != nil {
		t.Fatal(err)
	}
	targetSpace, err := New(a, targetProb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 20; i++ {
		donor := donorSpace.Random(rng)
		r := targetSpace.Reproject(&donor)
		if err := targetSpace.IsMember(&r); err != nil {
			t.Fatalf("cross-shape reprojection invalid: %v", err)
		}
		// The target problem must still be fully covered: per-dim factor
		// products equal the target shape, which IsMember checks; the DRAM
		// band absorbed the 4x size growth. Spot-check the donor's spatial
		// request transferred for dim 0 when divisors allow.
		if got, want := r.Chain(0)[ChainL1]*r.Chain(0)[ChainSpatial]*r.Chain(0)[ChainL2]*r.Chain(0)[ChainDRAM], targetProb.Shape[0]; got != want {
			t.Fatalf("dim 0 factorization covers %d, want %d", got, want)
		}
	}
}

// TestReprojectForeignDonor pins the defensive path: a donor with a
// different dimensionality (structurally incomplete for this space) still
// yields a valid member — the minimal all-DRAM request — instead of
// panicking, so a corrupted or mismatched atlas entry can never take down
// a search job.
func TestReprojectForeignDonor(t *testing.T) {
	s := testSpaceCNN(t) // 7 dims
	conv, err := loopnest.NewConv1DProblem("foreign", 256, 3)
	if err != nil {
		t.Fatal(err)
	}
	foreignSpace, err := New(arch.Default(2), conv)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	donor := foreignSpace.Random(rng) // 2 dims
	r := s.Reproject(&donor)
	if err := s.IsMember(&r); err != nil {
		t.Fatalf("foreign-donor reprojection invalid: %v", err)
	}
}

// desiredFrom hints every dimension of a valid mapping with its own chain;
// Reproject re-targets every DRAM log, so none of those hints may survive
// into its projection, and a pooled workspace reset for the next call
// (Decode's path) starts without hints too.
func TestReprojectClearsStaleHints(t *testing.T) {
	for _, s := range []*Space{testSpaceCNN(t), testSpaceMTTKRP(t)} {
		rng := rand.New(rand.NewSource(23))
		ws := getScratch()
		for i := 0; i < 20; i++ {
			m := s.Random(rng)
			for dim, h := range s.desiredFrom(ws, &m).hint {
				if want := s.tables[dim].indexOf(m.Chain(dim)); h != want || h < 0 {
					t.Fatalf("dim %d: desiredFrom hint %d, want the chain's index %d", dim, h, want)
				}
			}
			for dim, h := range s.retargeted(ws, &m).hint {
				if h != -1 {
					t.Fatalf("dim %d: hint %d survived the DRAM re-target", dim, h)
				}
			}
			s.desiredFrom(ws, &m)
			ws.des.reset(s.NumDims(), s.NumTensors())
			for dim, h := range ws.des.hint {
				if h != -1 {
					t.Fatalf("dim %d: hint %d survived a workspace reset", dim, h)
				}
			}
		}
		putScratch(ws)
	}
}
