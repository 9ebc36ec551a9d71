package oracle

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	_ "mindmappings/internal/timeloop" // register the timeloop and roofline backends
)

func TestComputeHandChecked(t *testing.T) {
	p, err := loopnest.NewConv1DProblem("c", 5, 2) // X=4, R=2
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Default(2)
	b, err := Compute(a, p)
	if err != nil {
		t.Fatal(err)
	}
	// Words: F=2, I=5, O=4 -> 11 words touched once per level, plus 8 MACs.
	wantE := 11*a.EnergyPerWordOnce() + 8*a.MACEnergyPJ
	if math.Abs(b.MinEnergyPJ-wantE) > 1e-9 {
		t.Fatalf("MinEnergyPJ = %v, want %v", b.MinEnergyPJ, wantE)
	}
	if b.MinCycles != 8.0/256 {
		t.Fatalf("MinCycles = %v, want 8/256", b.MinCycles)
	}
	wantEDP := wantE * 1e-12 * (8.0 / 256 / 1e9)
	if math.Abs(b.MinEDP-wantEDP) > 1e-24 {
		t.Fatalf("MinEDP = %v, want %v", b.MinEDP, wantEDP)
	}
}

func TestComputeValidation(t *testing.T) {
	p, _ := loopnest.NewConv1DProblem("c", 5, 2)
	bad := arch.Default(2)
	bad.NumPEs = 0
	if _, err := Compute(bad, p); err == nil {
		t.Fatal("accepted invalid arch")
	}
	if _, err := Compute(arch.Default(2), loopnest.Problem{}); err == nil {
		t.Fatal("accepted invalid problem")
	}
}

func TestNormalize(t *testing.T) {
	b := Bound{MinEnergyPJ: 10, MinCycles: 4, MinEDP: 2}
	if b.NormalizeEDP(6) != 3 {
		t.Fatal("NormalizeEDP wrong")
	}
	if b.NormalizeEnergy(25) != 2.5 {
		t.Fatal("NormalizeEnergy wrong")
	}
	zero := Bound{}
	if zero.NormalizeEDP(5) != 0 || zero.NormalizeEnergy(5) != 0 {
		t.Fatal("zero bound must normalize to 0, not NaN")
	}
}

// Property: the algorithmic minimum really is a lower bound — every valid
// mapping's modeled EDP normalizes to >= ~1. (The model charges at least
// one touch per word per level and at least MACs/PEs cycles; the only slack
// is the sub-unit allocation energy scale on on-chip levels, hence the 0.95
// guard band.)
func TestOracleIsLowerBoundProperty(t *testing.T) {
	prob, err := loopnest.NewCNNProblem("cnn", 4, 16, 8, 14, 14, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Default(2)
	bound, err := Compute(a, prob)
	if err != nil {
		t.Fatal(err)
	}
	model, err := costmodel.New("timeloop", a, prob)
	if err != nil {
		t.Fatal(err)
	}
	space, err := mapspace.New(a, prob)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := space.Random(rng)
		c, err := costmodel.Evaluate(nil, model, &m)
		if err != nil {
			return false
		}
		return bound.NormalizeEDP(c.EDP) >= 0.95
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundScalesWithProblem(t *testing.T) {
	small, err := loopnest.NewMTTKRPProblem("s", 64, 64, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	large, err := loopnest.NewMTTKRPProblem("l", 128, 128, 128, 128)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Default(3)
	bs, err := Compute(a, small)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := Compute(a, large)
	if err != nil {
		t.Fatal(err)
	}
	if bl.MinEDP <= bs.MinEDP {
		t.Fatal("larger problem must have larger minimum EDP")
	}
}
