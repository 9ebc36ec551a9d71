package service

import (
	"context"
	"testing"

	"mindmappings/internal/atlas"
)

// BenchmarkAtlasExactHit measures serving a repeat request from the atlas:
// submit-to-terminal-job latency for a stored answer. Compare against
// BenchmarkColdSearchJob for the repeat-traffic speedup.
func BenchmarkAtlasExactHit(b *testing.B) {
	at, err := atlas.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	jobs := NewJobManager(NewModelRegistry(b.TempDir(), 2), nil, 2, 8)
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
	jobs := NewJobManager(NewModelRegistry(b.TempDir(), 2), nil, 2, 8)
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
