package service

import (
	"context"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/atlas"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
)

// BenchmarkEvalCacheHit pins the satellite contract: a warm shared-cache
// hit through the costmodel middleware is allocation-free (run with
// -benchmem; allocs/op must be 0).
func BenchmarkEvalCacheHit(b *testing.B) {
	p, err := loopnest.NewConv1DProblem("bench", 1024, 5)
	if err != nil {
		b.Fatal(err)
	}
	a := arch.Default(2)
	inner, err := costmodel.New("timeloop", a, p)
	if err != nil {
		b.Fatal(err)
	}
	space, err := mapspace.New(a, p)
	if err != nil {
		b.Fatal(err)
	}
	ev := costmodel.WithCache(inner, NewEvalCache(64))
	m := space.Minimal()
	ctx := context.Background()
	var ws costmodel.Cost
	if err := ev.EvaluateInto(ctx, &m, &ws); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.EvaluateInto(ctx, &m, &ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalCacheMiss measures the shared-cache miss path through the
// costmodel middleware: 256 mappings cycle through 64 slots, so every
// iteration builds the key string, evaluates, clones, and evicts the least
// recently used entry (run with -benchmem; the budget is 2 allocs/op, the
// key and the clone).
func BenchmarkEvalCacheMiss(b *testing.B) {
	inner, ms := cacheFixture(b, 256)
	ev := costmodel.WithCache(inner, NewEvalCache(64))
	ctx := context.Background()
	var ws costmodel.Cost
	for i := range ms {
		if err := ev.EvaluateInto(ctx, &ms[i], &ws); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.EvaluateInto(ctx, &ms[i%len(ms)], &ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAtlasExactHit measures serving a repeat request from the atlas:
// submit-to-terminal-job latency for a stored answer. Compare against
// BenchmarkColdSearchJob for the repeat-traffic speedup.
func BenchmarkAtlasExactHit(b *testing.B) {
	at, err := atlas.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	jobs := NewJobManager(NewModelRegistry(b.TempDir(), 2), NewEvalCache(4096), 2, 8)
	defer jobs.Shutdown(context.Background())
	jobs.EnableAtlas(at, false)

	req := validRequest()
	req.Searcher = "ga"
	req.Evals = 2000
	job, err := jobs.Submit(req)
	if err != nil {
		b.Fatal(err)
	}
	if done, err := jobs.Wait(context.Background(), job.ID); err != nil || done.Status != JobDone {
		b.Fatalf("cold run failed: %+v err=%v", done, err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit, err := jobs.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		if hit.Status != JobDone || hit.Result.Source != "atlas" {
			b.Fatalf("not an atlas hit: %+v", hit)
		}
	}
}

// BenchmarkColdSearchJob measures the same request run as a real search
// job — the cost an atlas hit avoids.
func BenchmarkColdSearchJob(b *testing.B) {
	jobs := NewJobManager(NewModelRegistry(b.TempDir(), 2), NewEvalCache(0), 2, 8)
	defer jobs.Shutdown(context.Background())
	req := validRequest()
	req.Searcher = "ga"
	req.Evals = 2000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed = int64(i + 1)
		job, err := jobs.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		done, err := jobs.Wait(context.Background(), job.ID)
		if err != nil || done.Status != JobDone {
			b.Fatalf("job failed: %+v err=%v", done, err)
		}
	}
}
