package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/obs"
	"mindmappings/internal/resilience"
	"mindmappings/internal/search"
	"mindmappings/internal/stats"
)

// jobEvalFixture is a job evaluator over the reference backend on a small
// conv1d problem, with faults armed when f is non-nil, plus mappings to
// evaluate.
func jobEvalFixture(t testing.TB, f *resilience.Faults) (*jobEvaluator, []mapspace.Mapping) {
	t.Helper()
	p, err := loopnest.NewConv1DProblem("jobeval", 1024, 5)
	if err != nil {
		t.Fatal(err)
	}
	sctx, err := search.NewContext("", arch.Default(2), p)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(9)
	ms := make([]mapspace.Mapping, 20)
	for i := range ms {
		ms[i] = sctx.Space.Random(rng)
	}
	return &jobEvaluator{Evaluator: sctx.Model, hist: obs.NewHistogram(evalSecondsBuckets), faults: f}, ms
}

// TestJobEvaluatorSamplesOneIn64 pins the sampled timing: exactly one in
// evalTimingSample evaluations reaches the histogram, batch evaluations
// take the same sampled scalar path, and the backend's identity shows
// through.
func TestJobEvaluatorSamplesOneIn64(t *testing.T) {
	ev, ms := jobEvalFixture(t, nil)
	if ev.Name() != "timeloop" {
		t.Fatalf("job evaluator named %q, want the backend's name", ev.Name())
	}
	ctx := context.Background()
	var ws costmodel.Cost
	for i := 0; i < 3*evalTimingSample; i++ {
		if err := ev.EvaluateInto(ctx, &ms[i%len(ms)], &ws); err != nil {
			t.Fatal(err)
		}
	}
	if got := ev.hist.Count(); got != 3 {
		t.Fatalf("histogram holds %d samples after %d evals, want 3", got, 3*evalTimingSample)
	}
	costs := make([]costmodel.Cost, evalTimingSample)
	errs := make([]error, evalTimingSample)
	batch := make([]mapspace.Mapping, evalTimingSample)
	for i := range batch {
		batch[i] = ms[i%len(ms)]
	}
	ev.EvaluateBatchInto(ctx, batch, costs, errs)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := ev.hist.Count(); got != 4 {
		t.Fatalf("histogram holds %d samples after %d evals, want 4", got, 4*evalTimingSample)
	}
}

// TestJobEvaluatorUnsampledPathAllocFree pins the eval hot path budget: an
// evaluation the timing does not sample allocates nothing.
func TestJobEvaluatorUnsampledPathAllocFree(t *testing.T) {
	ev, ms := jobEvalFixture(t, nil)
	ctx := context.Background()
	var ws costmodel.Cost
	if err := ev.EvaluateInto(ctx, &ms[0], &ws); err != nil { // size the workspace
		t.Fatal(err)
	}
	// 1 warm-up + 50 runs stay between the 1st and the 64th evaluation.
	allocs := testing.AllocsPerRun(50, func() {
		if err := ev.EvaluateInto(ctx, &ms[0], &ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("unsampled evaluation costs %.1f allocs, want 0", allocs)
	}
	if ev.hist.Count() != 0 {
		t.Fatal("an evaluation before the 64th was sampled")
	}
}

// TestJobEvaluatorFaultsDeterministic: at a fixed seed, the attempts that
// fail are the same on every run.
func TestJobEvaluatorFaultsDeterministic(t *testing.T) {
	run := func() []bool {
		f := resilience.NewFaults(7)
		f.SetErrorRate(faultSiteEval, 0.3)
		ev, ms := jobEvalFixture(t, f)
		var ws costmodel.Cost
		out := make([]bool, len(ms))
		for i := range ms {
			err := ev.attempt(context.Background(), &ms[i], &ws)
			if err != nil && !resilience.IsInjected(err) {
				t.Fatal(err)
			}
			out[i] = err != nil
		}
		return out
	}
	a, b := run(), run()
	failed := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault schedule diverges at attempt %d", i)
		}
		if a[i] {
			failed++
		}
	}
	if failed == 0 || failed == len(a) {
		t.Fatalf("rate 0.3 failed %d/%d attempts", failed, len(a))
	}
}

// TestJobEvaluatorSpikeHonorsCancellation: an injected latency spike is cut
// short by the job's context, and retry does not wait it out again.
func TestJobEvaluatorSpikeHonorsCancellation(t *testing.T) {
	f := resilience.NewFaults(7)
	f.SetLatency(faultSiteEval, 1, time.Hour)
	ev, ms := jobEvalFixture(t, f)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	var ws costmodel.Cost
	start := time.Now()
	if err := ev.EvaluateInto(ctx, &ms[0], &ws); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("spiked eval returned %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v to interrupt an hour-long spike", elapsed)
	}
}

// TestJobEvaluatorRetryAbsorbsFaults: injected transients are retried
// away, while a fault on every attempt exhausts the retry budget and
// surfaces.
func TestJobEvaluatorRetryAbsorbsFaults(t *testing.T) {
	f := resilience.NewFaults(7)
	f.SetErrorRate(faultSiteEval, 0.3)
	ev, ms := jobEvalFixture(t, f)
	var ws costmodel.Cost
	for i := range ms {
		if err := ev.EvaluateInto(context.Background(), &ms[i], &ws); err != nil {
			t.Fatalf("eval %d failed through retry: %v", i, err)
		}
	}
	f.SetErrorRate(faultSiteEval, 1)
	if err := ev.EvaluateInto(context.Background(), &ms[0], &ws); !resilience.IsInjected(err) {
		t.Fatalf("eval failing every attempt returned %v, want the injected fault", err)
	}
}

// TestJobEvaluatorRetryStopsOnCancellation: a canceled job's evaluation
// returns context.Canceled without drawing a fault, so the injector's
// schedule afterwards matches a fresh one at the same seed.
func TestJobEvaluatorRetryStopsOnCancellation(t *testing.T) {
	arm := func() *resilience.Faults {
		f := resilience.NewFaults(7)
		f.SetErrorRate(faultSiteEval, 0.5)
		return f
	}
	ev, ms := jobEvalFixture(t, arm())
	fresh, _ := jobEvalFixture(t, arm())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ws costmodel.Cost
	for i := 0; i < 3; i++ {
		if err := ev.EvaluateInto(ctx, &ms[0], &ws); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled eval returned %v, want context.Canceled", err)
		}
	}
	for i := range ms {
		a := ev.attempt(context.Background(), &ms[i], &ws)
		b := fresh.attempt(context.Background(), &ms[i], &ws)
		if (a == nil) != (b == nil) {
			t.Fatalf("attempt %d: %v after canceled evals, %v on a fresh injector: canceled evals drew faults", i, a, b)
		}
	}
}

// BenchmarkJobEvaluator measures one evaluation through the job evaluator
// at its 1-in-64 sampling with no faults armed: 63 of 64 evals pay one
// atomic add over the backend, the 64th two clock reads. It must stay
// within noise of costmodel's BenchmarkEvaluatorDispatchTimeloop and keep
// 0 allocs/op.
func BenchmarkJobEvaluator(b *testing.B) {
	ev, ms := jobEvalFixture(b, nil)
	ctx := context.Background()
	var ws costmodel.Cost
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.EvaluateInto(ctx, &ms[i%len(ms)], &ws); err != nil {
			b.Fatal(err)
		}
	}
}
