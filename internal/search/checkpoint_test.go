package search

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mindmappings/internal/mapspace"
)

// TestCheckpointResumeBitCompatible pins the resume contract end to end: a
// run resumed from a mid-flight checkpoint produces the identical final
// result and trajectory as the uninterrupted run — same best EDP, same
// eval count, bit-compatible trajectory suffix. The checkpoint round-trips
// through JSON on the way, exactly as the service journal stores it.
func TestCheckpointResumeBitCompatible(t *testing.T) {
	const seed, evals, every = 9, 600, 100
	mm := MindMappings{Surrogate: conv1dSurrogate(t)}

	var cks []*Checkpoint
	full := conv1dContext(t, seed)
	full.CheckpointEvery = every
	full.Checkpoint = func(c *Checkpoint) { cks = append(cks, c) }
	want, err := mm.Search(full, Budget{MaxEvals: evals})
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) < 3 {
		t.Fatalf("expected periodic checkpoints every %d of %d evals, got %d", every, evals, len(cks))
	}

	// Resume from a mid-run snapshot, round-tripped through JSON like a
	// journaled record.
	raw, err := json.Marshal(cks[2])
	if err != nil {
		t.Fatal(err)
	}
	var ck Checkpoint
	if err := json.Unmarshal(raw, &ck); err != nil {
		t.Fatal(err)
	}
	if ck.Eval != 3*every {
		t.Fatalf("checkpoint 2 at eval %d, want %d", ck.Eval, 3*every)
	}

	resumedCtx := conv1dContext(t, seed)
	resumedCtx.Resume = &ck
	got, err := mm.Search(resumedCtx, Budget{MaxEvals: evals})
	if err != nil {
		t.Fatal(err)
	}
	if got.Evals != want.Evals {
		t.Fatalf("resumed run paid %d evals, full run %d", got.Evals, want.Evals)
	}
	if got.BestEDP != want.BestEDP {
		t.Fatalf("resumed best %v, full best %v", got.BestEDP, want.BestEDP)
	}
	if got.Best.String() != want.Best.String() {
		t.Fatalf("resumed best mapping diverged:\n  %s\nvs\n  %s", got.Best.String(), want.Best.String())
	}
	if len(got.Trajectory) != len(want.Trajectory) {
		t.Fatalf("trajectory lengths diverged: %d vs %d", len(got.Trajectory), len(want.Trajectory))
	}
	for i := range want.Trajectory {
		if got.Trajectory[i].Eval != want.Trajectory[i].Eval ||
			got.Trajectory[i].BestEDP != want.Trajectory[i].BestEDP {
			t.Fatalf("trajectory diverged at sample %d: (%d, %v) vs (%d, %v)", i,
				got.Trajectory[i].Eval, got.Trajectory[i].BestEDP,
				want.Trajectory[i].Eval, want.Trajectory[i].BestEDP)
		}
	}
}

// TestResumeParentFormatCheckpoint resumes a checkpoint journaled by an
// earlier build (testdata/mm_checkpoint_v1.json: seed 9, 600 evals,
// snapshot at eval 100, its state's "chains" a one-element array) and
// requires the run to be bit-identical to an uninterrupted one. A state
// with any other number of chains is rejected.
func TestResumeParentFormatCheckpoint(t *testing.T) {
	const seed, evals = 9, 600
	mm := MindMappings{Surrogate: conv1dSurrogate(t)}
	want, err := mm.Search(conv1dContext(t, seed), Budget{MaxEvals: evals})
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join("testdata", "mm_checkpoint_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ck Checkpoint
	if err := json.Unmarshal(raw, &ck); err != nil {
		t.Fatal(err)
	}
	ctx := conv1dContext(t, seed)
	ctx.Resume = &ck
	got, err := mm.Search(ctx, Budget{MaxEvals: evals})
	if err != nil {
		t.Fatal(err)
	}
	if got.Evals != want.Evals || math.Float64bits(got.BestEDP) != math.Float64bits(want.BestEDP) ||
		got.Best.String() != want.Best.String() {
		t.Fatalf("resumed (%d evals, %v, %s) != uninterrupted (%d evals, %v, %s)",
			got.Evals, got.BestEDP, got.Best.String(), want.Evals, want.BestEDP, want.Best.String())
	}
	if len(got.Trajectory) != len(want.Trajectory) {
		t.Fatalf("trajectory lengths diverged: %d vs %d", len(got.Trajectory), len(want.Trajectory))
	}
	for i := range want.Trajectory {
		if got.Trajectory[i].Eval != want.Trajectory[i].Eval ||
			got.Trajectory[i].BestEDP != want.Trajectory[i].BestEDP {
			t.Fatalf("trajectory diverged at sample %d", i)
		}
	}

	var st mmState
	if err := json.Unmarshal(ck.State, &st); err != nil {
		t.Fatal(err)
	}
	for _, chains := range [][]mapspace.Mapping{nil, {st.Chains[0], st.Chains[0]}} {
		bad := st
		bad.Chains = chains
		state, err := json.Marshal(&bad)
		if err != nil {
			t.Fatal(err)
		}
		badCk := ck
		badCk.State = state
		ctx := conv1dContext(t, seed)
		ctx.Resume = &badCk
		if _, err := mm.Search(ctx, Budget{MaxEvals: evals}); err == nil ||
			!strings.Contains(err.Error(), "chains") {
			t.Fatalf("%d-chain checkpoint: err %v, want a chain-count error", len(chains), err)
		}
	}
}

// TestResumeRejectsWrongMethod pins that a checkpoint only resumes the
// searcher that emitted it.
func TestResumeRejectsWrongMethod(t *testing.T) {
	ctx := conv1dContext(t, 1)
	ctx.Resume = &Checkpoint{Method: "SA"}
	if _, err := (MindMappings{Surrogate: conv1dSurrogate(t)}.Search(ctx, Budget{MaxEvals: 10})); err == nil {
		t.Fatal("MM accepted an SA checkpoint")
	}
}

// TestCancelEmitsBoundaryCheckpoint pins the drain contract: a cancelled
// run leaves a checkpoint no further along than its reported result, so a
// resume never replays work the result already covers, and covers all but
// at most one in-flight iteration.
func TestCancelEmitsBoundaryCheckpoint(t *testing.T) {
	ctx := conv1dContext(t, 3)
	ctx.QueryLatency = 2 * time.Millisecond
	ctx.CheckpointEvery = 10
	var last *Checkpoint
	ctx.Checkpoint = func(c *Checkpoint) { last = c }
	cctx, cancel := context.WithCancel(context.Background())
	ctx.Ctx = cctx
	// Train (or fetch) the shared surrogate before the clock starts, so
	// the 50 ms before cancel go to the search whatever ran first.
	mm := MindMappings{Surrogate: conv1dSurrogate(t)}

	done := make(chan Result, 1)
	go func() {
		res, err := mm.Search(ctx, Budget{MaxEvals: 500_000})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case res := <-done:
		if res.Evals == 0 || last == nil {
			t.Fatalf("expected progress and a checkpoint before cancel (evals %d)", res.Evals)
		}
		if last.Eval > res.Evals {
			t.Fatalf("checkpoint at eval %d beyond the result's %d", last.Eval, res.Evals)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("search did not stop after cancellation")
	}
}

// TestCheckpointSurvivesInfiniteBest pins the JSON encoding of a
// checkpoint taken before any evaluation completed: best-so-far is +Inf,
// which a plain float64 field would corrupt.
func TestCheckpointSurvivesInfiniteBest(t *testing.T) {
	ck := Checkpoint{Method: "MM", BestEDP: jsonFloat(math.Inf(1))}
	raw, err := json.Marshal(&ck)
	if err != nil {
		t.Fatal(err)
	}
	var back Checkpoint
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(back.BestEDP), 1) {
		t.Fatalf("+Inf best round-tripped to %v", float64(back.BestEDP))
	}
}
