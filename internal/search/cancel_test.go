package search

import (
	"context"
	"testing"
	"time"
)

func TestCancellationStopsInFlightSearch(t *testing.T) {
	ctx := conv1dContext(t, 1)
	// The run would take an hour without the cancel; cancel shortly after
	// it starts.
	cctx, cancel := context.WithCancel(context.Background())
	ctx.Ctx = cctx

	done := make(chan Result, 1)
	go func() {
		res, err := RandomSearch{}.Search(ctx, Budget{MaxTime: time.Hour})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case res := <-done:
		if res.Evals <= 0 {
			t.Fatalf("expected partial progress before cancel, got %d evals", res.Evals)
		}
		if res.Elapsed >= time.Hour {
			t.Fatalf("run was not cut short: %v elapsed", res.Elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("search did not stop after cancellation")
	}
}

func TestPreCanceledContextRunsNoEvals(t *testing.T) {
	ctx := conv1dContext(t, 1)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx.Ctx = cctx
	res, err := RandomSearch{}.Search(ctx, Budget{MaxEvals: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 0 {
		t.Fatalf("pre-canceled run paid %d evals", res.Evals)
	}
}

func TestSeedReproducibility(t *testing.T) {
	run := func(seed int64) Result {
		ctx := conv1dContext(t, seed)
		res, err := RandomSearch{}.Search(ctx, Budget{MaxEvals: 40})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(3), run(3)
	if a.BestEDP != b.BestEDP {
		t.Fatalf("same seed diverged: %v vs %v", a.BestEDP, b.BestEDP)
	}
	if len(a.Trajectory) != len(b.Trajectory) {
		t.Fatalf("same seed trajectory lengths differ: %d vs %d", len(a.Trajectory), len(b.Trajectory))
	}
	for i := range a.Trajectory {
		if a.Trajectory[i].BestEDP != b.Trajectory[i].BestEDP {
			t.Fatalf("same seed trajectory diverged at %d", i)
		}
	}
	c := run(4)
	if c.BestEDP == a.BestEDP && len(c.Trajectory) == len(a.Trajectory) &&
		c.Trajectory[0].BestEDP == a.Trajectory[0].BestEDP {
		t.Fatalf("different seeds produced an identical run")
	}
}
