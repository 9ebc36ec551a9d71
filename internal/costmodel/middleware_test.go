package costmodel_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mindmappings/internal/costmodel"
)

// --- Counter middleware ---

func TestCounterMiddleware(t *testing.T) {
	f := newFixture(t, 10)
	var ctr costmodel.Counter
	ev := costmodel.WithCounter(f.backend(t, ""), &ctr)
	if ev.Name() != "timeloop" {
		t.Fatalf("counter wrapper changed the name to %q", ev.Name())
	}
	ctx := context.Background()
	var ws costmodel.Cost
	for i := 0; i < 3; i++ {
		if err := ev.EvaluateInto(ctx, &f.ms[i], &ws); err != nil {
			t.Fatal(err)
		}
	}
	costs := make([]costmodel.Cost, 4)
	errs := make([]error, 4)
	ev.EvaluateBatchInto(ctx, f.ms[:4], costs, errs)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := ctr.Count(); got != 7 {
		t.Fatalf("counter = %d, want 7 (3 scalar + 4 batch)", got)
	}
	ctr.Reset()
	if ctr.Count() != 0 {
		t.Fatal("Reset failed")
	}
	if costmodel.WithCounter(f.backend(t, ""), nil).Name() != "timeloop" {
		t.Fatal("nil counter should pass the backend through")
	}
}

// TestCounterSharedAcrossStacks: one Counter attached to two stacks (the
// service's per-backend accounting) aggregates both, concurrently.
func TestCounterSharedAcrossStacks(t *testing.T) {
	f := newFixture(t, 11)
	var ctr costmodel.Counter
	a := costmodel.WithCounter(f.backend(t, ""), &ctr)
	b := costmodel.WithCounter(f.backend(t, ""), &ctr)
	ctx := context.Background()
	var wg sync.WaitGroup
	for _, ev := range []costmodel.Evaluator{a, b} {
		wg.Add(1)
		go func(ev costmodel.Evaluator) {
			defer wg.Done()
			var ws costmodel.Cost
			for i := 0; i < 50; i++ {
				if err := ev.EvaluateInto(ctx, &f.ms[i%len(f.ms)], &ws); err != nil {
					t.Error(err)
					return
				}
			}
		}(ev)
	}
	wg.Wait()
	if got := ctr.Count(); got != 100 {
		t.Fatalf("shared counter = %d, want 100", got)
	}
}

// --- Latency middleware ---

func TestLatencyMiddlewareStalls(t *testing.T) {
	f := newFixture(t, 12)
	ev := costmodel.WithLatency(f.backend(t, ""), 5*time.Millisecond)
	var ws costmodel.Cost
	start := time.Now()
	if err := ev.EvaluateInto(context.Background(), &f.ms[0], &ws); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Fatalf("latency emulation too fast: %v", elapsed)
	}
	if costmodel.WithLatency(f.backend(t, ""), 0).Name() != "timeloop" {
		t.Fatal("zero latency should pass the backend through")
	}
}

// TestLatencyHonorsCancellation is the satellite-fix guard: a context
// canceled mid-stall interrupts the wait immediately instead of sleeping
// it out, so jobs with emulated query latency tear down promptly.
func TestLatencyHonorsCancellation(t *testing.T) {
	f := newFixture(t, 13)
	ev := costmodel.WithLatency(f.backend(t, ""), 10*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	var ws costmodel.Cost
	start := time.Now()
	err := ev.EvaluateInto(ctx, &f.ms[0], &ws)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v to interrupt a 10s stall", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// --- Timing middleware ---

// TestTimingMiddlewareSamples pins the sampled-observation contract: with
// every=N, exactly one in N evaluations reaches the observer, and the
// off-sample path stays observation-free.
func TestTimingMiddlewareSamples(t *testing.T) {
	f := newFixture(t, 20)
	var observed atomic.Int64
	ev := costmodel.WithTiming(f.backend(t, ""), 5, func(d time.Duration) {
		if d < 0 {
			t.Errorf("negative latency sample %v", d)
		}
		observed.Add(1)
	})
	if ev.Name() != "timeloop" {
		t.Fatalf("timing wrapper changed the name to %q", ev.Name())
	}
	ctx := context.Background()
	var ws costmodel.Cost
	for i := 0; i < 20; i++ {
		if err := ev.EvaluateInto(ctx, &f.ms[i%len(f.ms)], &ws); err != nil {
			t.Fatal(err)
		}
	}
	if got := observed.Load(); got != 4 {
		t.Fatalf("observer fired %d times for 20 evals at every=5, want 4", got)
	}
	// Batch evaluations route through the same sampled scalar path.
	costs := make([]costmodel.Cost, 10)
	errs := make([]error, 10)
	ev.EvaluateBatchInto(ctx, f.ms[:10], costs, errs)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := observed.Load(); got != 6 {
		t.Fatalf("observer at %d after 30 evals, want 6", got)
	}
	if costmodel.WithTiming(f.backend(t, ""), 0, func(time.Duration) {}).Name() != "timeloop" {
		t.Fatal("every<1 should pass the backend through")
	}
	if costmodel.WithTiming(f.backend(t, ""), 5, nil).Name() != "timeloop" {
		t.Fatal("nil observer should pass the backend through")
	}
}

// TestTimingSkipPathAllocFree pins the hot-path budget: an off-sample
// evaluation through the timing wrapper allocates nothing.
func TestTimingSkipPathAllocFree(t *testing.T) {
	f := newFixture(t, 21)
	// every large enough that AllocsPerRun's iterations never sample.
	ev := costmodel.WithTiming(f.backend(t, ""), 1<<30, func(time.Duration) {})
	ctx := context.Background()
	var ws costmodel.Cost
	allocs := testing.AllocsPerRun(200, func() {
		if err := ev.EvaluateInto(ctx, &f.ms[0], &ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("timing skip path costs %.1f allocs, want 0", allocs)
	}
}

// TestFullStackComposition drives the search tracker's paid stack —
// latency(counter(backend)) — through EvaluateBatchInto and checks the
// pieces interact correctly: every element of every pass is charged and
// stalled, and a repeated pass reproduces the first one's costs.
func TestFullStackComposition(t *testing.T) {
	f := newFixture(t, 19)
	var ctr costmodel.Counter
	const stall = 2 * time.Millisecond
	ev := costmodel.WithLatency(costmodel.WithCounter(f.backend(t, ""), &ctr), stall)
	ctx := context.Background()
	n := 8
	costs := make([]costmodel.Cost, n)
	errs := make([]error, n)
	first := make([]float64, n)
	for pass := 1; pass <= 2; pass++ {
		start := time.Now()
		ev.EvaluateBatchInto(ctx, f.ms[:n], costs, errs)
		elapsed := time.Since(start)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := ctr.Count(); got != int64(pass*n) {
			t.Fatalf("pass %d: counter reads %d evals, want %d", pass, got, pass*n)
		}
		// The batch is sequential: every element pays its own stall.
		if elapsed < time.Duration(n)*stall {
			t.Fatalf("pass %d took %v, want >= %v: latency not paid", pass, elapsed, time.Duration(n)*stall)
		}
		for i := range costs {
			if pass == 1 {
				first[i] = costs[i].EDP
			} else if costs[i].EDP != first[i] {
				t.Fatalf("element %d: repeat EDP %v != original %v", i, costs[i].EDP, first[i])
			}
		}
	}
}
