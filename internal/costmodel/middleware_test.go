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

// mapCache is a minimal concurrency-safe Cache for tests.
type mapCache struct {
	mu   sync.Mutex
	m    map[string]costmodel.Cost
	puts int
}

func newMapCache() *mapCache { return &mapCache{m: map[string]costmodel.Cost{}} }

func (c *mapCache) Get(key string) (costmodel.Cost, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *mapCache) Put(key string, v costmodel.Cost) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
	c.puts++
}

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

// --- Cache middleware ---

func TestCacheMiddlewareMemoizes(t *testing.T) {
	f := newFixture(t, 14)
	cache := newMapCache()
	var ctr costmodel.Counter
	// Conventional order: cache outside the counter, so hits are not
	// charged as paid queries.
	ev := costmodel.WithCache(costmodel.WithCounter(f.backend(t, ""), &ctr), cache)
	ctx := context.Background()
	var ws costmodel.Cost
	if err := ev.EvaluateInto(ctx, &f.ms[0], &ws); err != nil {
		t.Fatal(err)
	}
	want := ws.Clone()
	// Hit: same mapping, fresh workspace — identical cost, no new eval.
	var ws2 costmodel.Cost
	if err := ev.EvaluateInto(ctx, &f.ms[0], &ws2); err != nil {
		t.Fatal(err)
	}
	if ctr.Count() != 1 {
		t.Fatalf("cache hit charged the counter: %d evals", ctr.Count())
	}
	if ws2.EDP != want.EDP || ws2.TotalEnergyPJ != want.TotalEnergyPJ || ws2.Cycles != want.Cycles {
		t.Fatal("cache hit returned a different cost")
	}
	for l := range want.Accesses {
		for tt := range want.Accesses[l] {
			if ws2.Accesses[l][tt] != want.Accesses[l][tt] {
				t.Fatal("cache hit lost per-level values")
			}
		}
	}
	// The cached entry must be detached: reusing the original workspace
	// for another mapping must not corrupt it.
	if err := ev.EvaluateInto(ctx, &f.ms[1], &ws); err != nil {
		t.Fatal(err)
	}
	var ws3 costmodel.Cost
	if err := ev.EvaluateInto(ctx, &f.ms[0], &ws3); err != nil {
		t.Fatal(err)
	}
	if ws3.EDP != want.EDP {
		t.Fatal("cached cost was corrupted by workspace reuse")
	}
	if ctr.Count() != 2 {
		t.Fatalf("evals = %d, want 2", ctr.Count())
	}
	if costmodel.WithCache(f.backend(t, ""), nil).Name() != "timeloop" {
		t.Fatal("nil cache should pass the backend through")
	}
}

// TestCacheSeparatesBackends: the same mapping evaluated by different
// backends (or on different accelerators) must occupy different entries —
// evaluator-ID-prefixed keys guarantee it.
func TestCacheSeparatesBackends(t *testing.T) {
	f := newFixture(t, 15)
	cache := newMapCache()
	ctx := context.Background()
	tl := costmodel.WithCache(f.backend(t, "timeloop"), cache)
	rf := costmodel.WithCache(f.backend(t, "roofline"), cache)
	var a, b costmodel.Cost
	if err := tl.EvaluateInto(ctx, &f.ms[0], &a); err != nil {
		t.Fatal(err)
	}
	if err := rf.EvaluateInto(ctx, &f.ms[0], &b); err != nil {
		t.Fatal(err)
	}
	if cache.puts != 2 {
		t.Fatalf("cache holds %d entries for two backends, want 2", cache.puts)
	}
	if a.EDP == b.EDP {
		t.Fatal("timeloop and roofline agreed exactly — backends are not distinct")
	}
	// Each backend must hit its own entry on the second query.
	var a2, b2 costmodel.Cost
	if err := tl.EvaluateInto(ctx, &f.ms[0], &a2); err != nil {
		t.Fatal(err)
	}
	if err := rf.EvaluateInto(ctx, &f.ms[0], &b2); err != nil {
		t.Fatal(err)
	}
	if a2.EDP != a.EDP || b2.EDP != b.EDP {
		t.Fatal("hit served the wrong backend's cost")
	}
}

// TestCacheHitSingleAllocation pins the hot-path contract: a warm cache
// hit costs exactly one allocation (the key string).
func TestCacheHitSingleAllocation(t *testing.T) {
	f := newFixture(t, 16)
	cache := newMapCache()
	ev := costmodel.WithCache(f.backend(t, ""), cache)
	ctx := context.Background()
	var ws costmodel.Cost
	if err := ev.EvaluateInto(ctx, &f.ms[0], &ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := ev.EvaluateInto(ctx, &f.ms[0], &ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("warm cache hit costs %.1f allocs, want <= 1", allocs)
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

// --- Parallel middleware ---

func TestParallelBatchMatchesSequential(t *testing.T) {
	f := newFixture(t, 17)
	base := f.backend(t, "")
	par := costmodel.WithParallel(base, 4)
	ctx := context.Background()
	n := len(f.ms)
	seq := make([]costmodel.Cost, n)
	seqErr := make([]error, n)
	base.EvaluateBatchInto(ctx, f.ms, seq, seqErr)
	got := make([]costmodel.Cost, n)
	gotErr := make([]error, n)
	par.EvaluateBatchInto(ctx, f.ms, got, gotErr)
	for i := 0; i < n; i++ {
		if seqErr[i] != nil || gotErr[i] != nil {
			t.Fatalf("errs[%d] = %v / %v", i, seqErr[i], gotErr[i])
		}
		if got[i].EDP != seq[i].EDP || got[i].TotalEnergyPJ != seq[i].TotalEnergyPJ ||
			got[i].Cycles != seq[i].Cycles {
			t.Fatalf("element %d: parallel %v != sequential %v", i, got[i].EDP, seq[i].EDP)
		}
	}
	if costmodel.WithParallel(base, 1) != base {
		t.Fatal("workers<=1 should pass the backend through")
	}
}

func TestParallelBatchHonorsCancellation(t *testing.T) {
	f := newFixture(t, 18)
	// Slow stack so cancellation lands mid-batch.
	ev := costmodel.WithParallel(costmodel.WithLatency(f.backend(t, ""), 5*time.Millisecond), 2)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(8 * time.Millisecond)
		cancel()
	}()
	n := len(f.ms)
	costs := make([]costmodel.Cost, n)
	errs := make([]error, n)
	start := time.Now()
	ev.EvaluateBatchInto(ctx, f.ms, costs, errs)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("canceled batch still took %v", elapsed)
	}
	canceled := 0
	for _, err := range errs {
		if errors.Is(err, context.Canceled) {
			canceled++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if canceled == 0 {
		t.Fatal("no element observed the cancellation")
	}
}

// TestFullStackComposition drives the conventional full stack —
// parallel(cache(latency(counter(backend)))) — and checks the pieces
// interact correctly: first batch all misses (counted, stalled), second
// batch all hits (uncounted, fast).
func TestFullStackComposition(t *testing.T) {
	f := newFixture(t, 19)
	cache := newMapCache()
	var ctr costmodel.Counter
	ev := costmodel.WithParallel(
		costmodel.WithCache(
			costmodel.WithLatency(
				costmodel.WithCounter(f.backend(t, ""), &ctr),
				2*time.Millisecond),
			cache),
		4)
	ctx := context.Background()
	n := 8
	costs := make([]costmodel.Cost, n)
	errs := make([]error, n)
	ev.EvaluateBatchInto(ctx, f.ms[:n], costs, errs)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := ctr.Count(); got != int64(n) {
		t.Fatalf("first pass charged %d evals, want %d", got, n)
	}
	first := make([]float64, n)
	for i := range costs {
		first[i] = costs[i].EDP
	}
	start := time.Now()
	ev.EvaluateBatchInto(ctx, f.ms[:n], costs, errs)
	hitTime := time.Since(start)
	if got := ctr.Count(); got != int64(n) {
		t.Fatalf("cache hits charged the counter: %d evals after second pass", got)
	}
	if hitTime > 5*time.Millisecond {
		t.Fatalf("all-hit batch still paid latency: %v", hitTime)
	}
	for i := range costs {
		if costs[i].EDP != first[i] {
			t.Fatalf("element %d: hit EDP %v != original %v", i, costs[i].EDP, first[i])
		}
	}
}
