package search

import (
	"encoding/json"
	"testing"
)

// TestSeedMappingWarmStart pins that a seed mapping actually changes where
// the descent begins: two runs with the same RNG seed, one warm-started
// and one cold, diverge, while two identically seeded warm runs are
// bit-identical.
func TestSeedMappingWarmStart(t *testing.T) {
	const seed, evals = 5, 300
	mm := MindMappings{Surrogate: conv1dSurrogate(t)}

	cold, err := mm.Search(conv1dContext(t, seed), Budget{MaxEvals: evals})
	if err != nil {
		t.Fatal(err)
	}

	warmCtx := func() *Context {
		ctx := conv1dContext(t, seed)
		m := ctx.Space.Minimal()
		ctx.SeedMapping = &m
		return ctx
	}
	warm1, err := mm.Search(warmCtx(), Budget{MaxEvals: evals})
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := mm.Search(warmCtx(), Budget{MaxEvals: evals})
	if err != nil {
		t.Fatal(err)
	}
	if warm1.BestEDP != warm2.BestEDP || warm1.Best.String() != warm2.Best.String() {
		t.Fatal("identically seeded warm runs diverged")
	}
	if len(warm1.Trajectory) != len(warm2.Trajectory) {
		t.Fatal("warm trajectories differ in length")
	}
	for i := range warm1.Trajectory {
		if warm1.Trajectory[i].Eval != warm2.Trajectory[i].Eval ||
			warm1.Trajectory[i].BestEDP != warm2.Trajectory[i].BestEDP {
			t.Fatalf("warm trajectories diverged at sample %d", i)
		}
	}
	diverged := cold.BestEDP != warm1.BestEDP || cold.Best.String() != warm1.Best.String()
	for i := 0; !diverged && i < len(cold.Trajectory) && i < len(warm1.Trajectory); i++ {
		diverged = cold.Trajectory[i].BestEDP != warm1.Trajectory[i].BestEDP
	}
	if !diverged {
		t.Fatal("seed mapping had no effect: warm run reproduced the cold run exactly")
	}
}

// TestSeededCheckpointResumeBitCompatible is the warm-start counterpart of
// TestCheckpointResumeBitCompatible: a warm-started run interrupted at a
// checkpoint and resumed (with the seed mapping still present in the
// context, as the service journal recovery path supplies it) reproduces
// the uninterrupted warm-started trajectory bit for bit. This holds
// because seeding replaces chain 0's start after all random draws are
// made, leaving the RNG stream position untouched, and because Resume
// takes precedence over SeedMapping.
func TestSeededCheckpointResumeBitCompatible(t *testing.T) {
	const seed, evals, every = 11, 600, 100
	mm := MindMappings{Surrogate: conv1dSurrogate(t)}
	seededCtx := func() *Context {
		ctx := conv1dContext(t, seed)
		m := ctx.Space.Minimal()
		ctx.SeedMapping = &m
		return ctx
	}

	var cks []*Checkpoint
	full := seededCtx()
	full.CheckpointEvery = every
	full.Checkpoint = func(c *Checkpoint) { cks = append(cks, c) }
	want, err := mm.Search(full, Budget{MaxEvals: evals})
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) < 3 {
		t.Fatalf("expected periodic checkpoints, got %d", len(cks))
	}

	raw, err := json.Marshal(cks[2])
	if err != nil {
		t.Fatal(err)
	}
	var ck Checkpoint
	if err := json.Unmarshal(raw, &ck); err != nil {
		t.Fatal(err)
	}

	resumed := seededCtx()
	resumed.Resume = &ck
	got, err := mm.Search(resumed, Budget{MaxEvals: evals})
	if err != nil {
		t.Fatal(err)
	}
	if got.Evals != want.Evals || got.BestEDP != want.BestEDP || got.Best.String() != want.Best.String() {
		t.Fatalf("seeded resume diverged: evals %d/%d best %v/%v",
			got.Evals, want.Evals, got.BestEDP, want.BestEDP)
	}
	if len(got.Trajectory) != len(want.Trajectory) {
		t.Fatalf("trajectory lengths diverged: %d vs %d", len(got.Trajectory), len(want.Trajectory))
	}
	for i := range want.Trajectory {
		if got.Trajectory[i].Eval != want.Trajectory[i].Eval ||
			got.Trajectory[i].BestEDP != want.Trajectory[i].BestEDP {
			t.Fatalf("seeded resume trajectory diverged at sample %d: %+v vs %+v",
				i, got.Trajectory[i], want.Trajectory[i])
		}
	}
}

// TestSeedMappingRepairsInvalidSeed pins the defensive contract: a seed
// mapping that is not a member of the target space (the atlas re-projection
// path can hand over anything) is repaired, never evaluated raw.
func TestSeedMappingRepairsInvalidSeed(t *testing.T) {
	ctx := conv1dContext(t, 7)
	bad := ctx.Space.Minimal()
	bad.Spatial[0] = 1 << 20 // absurd parallelism: not a member
	ctx.SeedMapping = &bad
	res, err := (MindMappings{Surrogate: conv1dSurrogate(t)}).Search(ctx, Budget{MaxEvals: 120})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Space.IsMember(&res.Best); err != nil {
		t.Fatalf("best mapping invalid after seeding with garbage: %v", err)
	}
}
