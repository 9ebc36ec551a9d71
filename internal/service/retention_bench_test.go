package service

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"mindmappings/internal/obs"
)

// BenchmarkRetainedJob measures what a finished search job keeps on the
// heap: per iteration it runs retainedJobs short seeded searches (ga, sa
// and mm in turn, 300 evals each, on distinct conv1d shapes) with retention
// above their count, forces a GC, and reports the live-heap growth per
// finished job as B/job. An unmeasured first pass fills the process-wide
// caches, one job first loads the model, and the flight recorder starts
// full of finish events like the ones the jobs record, so the growth is
// the retained records alone.
func BenchmarkRetainedJob(b *testing.B) {
	const retainedJobs = 300
	dir := modelDir(b, "conv1d.surrogate")
	ctx := context.Background()
	run := func(jm *JobManager, i int) {
		req := SearchRequest{
			Algo: "conv1d", Shape: []int{512 + 8*i, 3 + i%5}, Model: "conv1d.surrogate",
			Searcher: []string{"ga", "sa", "mm"}[i%3], Evals: 300, Seed: int64(i + 1),
		}
		job, err := jm.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		if done, err := jm.Wait(ctx, job.ID); err != nil || done.Status != JobDone {
			b.Fatalf("job %d: %s %v", i, done.Status, err)
		}
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// pass runs the jobs on a fresh manager and returns the live-heap growth
	// per retained job.
	pass := func() float64 {
		jm := NewJobManager(NewModelRegistry(dir, 4), nil, 1, 8)
		defer func() {
			if err := jm.Shutdown(ctx); err != nil {
				b.Fatal(err)
			}
		}()
		jm.SetJobRetention(2 * retainedJobs)
		run(jm, retainedJobs+2) // an mm job on a shape outside the measured ones
		for i := range obs.DefaultFlightRecorderSize {
			jm.flight.Record(obs.SevInfo, "job.finish", "search job finished",
				map[string]string{"id": fmt.Sprintf("%032x", i), "tenant": "default", "status": "done"})
		}
		before := liveHeap()
		for i := range retainedJobs {
			run(jm, i)
		}
		perJob := float64(int64(liveHeap())-int64(before)) / retainedJobs
		if n := len(jm.List()); n != retainedJobs+1 {
			b.Fatalf("retained %d jobs, want %d", n, retainedJobs+1)
		}
		return perJob
	}
	pass() // fills the process-wide caches, such as each dimension size's chain table
	var perJob float64
	for b.Loop() {
		perJob = pass()
	}
	b.ReportMetric(perJob, "B/job")
}
