package service

import (
	"context"
	"errors"
	"testing"

	"mindmappings/internal/atlas"
	"mindmappings/internal/resilience"
)

// atlasManager builds a JobManager wired to a fresh atlas in a temp dir.
func atlasManager(t *testing.T, readonly bool, modelNames ...string) (*JobManager, *atlas.Atlas) {
	t.Helper()
	dir := t.TempDir()
	if len(modelNames) > 0 {
		dir = modelDir(t, modelNames...)
	}
	a, err := atlas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := NewJobManager(NewModelRegistry(dir, 2), nil, 2, 8)
	t.Cleanup(func() { jobs.Shutdown(context.Background()) })
	jobs.EnableAtlas(a, readonly)
	return jobs, a
}

// atlasCounts is a snapshot of the manager's atlas outcome counters.
type atlasCounts struct{ Hits, Neighbors, Cold, Writebacks int64 }

func atlasCountsOf(jm *JobManager) atlasCounts {
	m := &jm.met
	return atlasCounts{m.atlasHits.Value(), m.atlasNeighbors.Value(), m.atlasCold.Value(), m.atlasWritebacks.Value()}
}

func runToDone(t *testing.T, jobs *JobManager, req SearchRequest) Job {
	t.Helper()
	job, err := jobs.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	done, err := jobs.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != JobDone {
		t.Fatalf("job status %s (%s)", done.Status, done.Error)
	}
	return done
}

// TestAtlasExactHitServing pins the tentpole read path end to end: a
// completed search writes its solution back to the atlas, and the
// identical request is then answered terminally at submit time — no
// worker, no queue slot — with source "atlas" and the stored cost.
func TestAtlasExactHitServing(t *testing.T) {
	jobs, a := atlasManager(t, false)

	req := validRequest()
	req.Searcher = "ga"
	req.Evals = 300
	cold := runToDone(t, jobs, req)
	if cold.Result.Source != "" {
		t.Fatalf("cold result source %q, want empty", cold.Result.Source)
	}
	st := atlasCountsOf(jobs)
	if st.Writebacks != 1 || a.Stats().Entries != 1 {
		t.Fatalf("after cold run: %+v, %+v", st, a.Stats())
	}

	// The identical request is served without entering the queue: the job
	// comes back already terminal.
	hit, err := jobs.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Status != JobDone || hit.Result == nil {
		t.Fatalf("atlas hit not terminal at submit: %+v", hit)
	}
	if hit.Result.Source != "atlas" {
		t.Fatalf("hit source %q, want \"atlas\"", hit.Result.Source)
	}
	if hit.Result.BestEDP != cold.Result.BestEDP {
		t.Fatalf("hit cost %v, cold cost %v", hit.Result.BestEDP, cold.Result.BestEDP)
	}
	if hit.Result.Mapping != cold.Result.Mapping {
		t.Fatal("hit served a different mapping than the cold run found")
	}
	if hit.Result.LoopNest == "" {
		t.Fatal("hit result has no rendered loop nest")
	}
	// The synthesized job is registered: Wait and Get see it like any other.
	if again, err := jobs.Wait(context.Background(), hit.ID); err != nil || again.Status != JobDone {
		t.Fatalf("waiting on an atlas-served job: %+v err=%v", again, err)
	}
	st = atlasCountsOf(jobs)
	if st.Hits != 1 {
		t.Fatalf("hits = %d, want 1: %+v", st.Hits, st)
	}
	// Serving a hit must not have written anything new.
	if st.Writebacks != 1 || a.Stats().Entries != 1 {
		t.Fatalf("hit mutated the atlas: %+v", st)
	}

	// A different seed is the same search identity — still a hit.
	req.Seed = 999
	if job, err := jobs.Submit(req); err != nil || job.Status != JobDone || job.Result.Source != "atlas" {
		t.Fatalf("seed change broke the identity: %+v err=%v", job, err)
	}
}

// TestAtlasNeighborWarmStart pins the nearest-neighbor path: an mm search
// for an unseen shape in a solved family is seeded from the closest
// entry's re-projected mapping and reports source "atlas-neighbor".
func TestAtlasNeighborWarmStart(t *testing.T) {
	jobs, a := atlasManager(t, false, "conv1d.surrogate")

	req := validRequest()
	req.Searcher = "mm"
	req.Model = "conv1d.surrogate"
	req.Evals = 200
	cold := runToDone(t, jobs, req)
	st := atlasCountsOf(jobs)
	if st.Cold != 1 || st.Neighbors != 0 {
		t.Fatalf("first run should be cold: %+v", st)
	}
	if cold.Result.Source != "" {
		t.Fatalf("cold source %q", cold.Result.Source)
	}

	warm := req
	warm.Shape = []int{2048, 5}
	done := runToDone(t, jobs, warm)
	if done.Result.Source != "atlas-neighbor" {
		t.Fatalf("warm-started result source %q, want \"atlas-neighbor\"", done.Result.Source)
	}
	st = atlasCountsOf(jobs)
	if st.Neighbors != 1 {
		t.Fatalf("neighbors = %d: %+v", st.Neighbors, st)
	}
	// Both solved shapes are now stored.
	if a.Stats().Entries != 2 || st.Writebacks != 2 {
		t.Fatalf("after warm run: %+v", st)
	}

	// Black-box searchers never warm-start: the seed would not change their
	// sampling anyway, so they count as cold.
	ga := warm
	ga.Shape = []int{512, 5}
	ga.Searcher = "ga"
	if done := runToDone(t, jobs, ga); done.Result.Source != "" {
		t.Fatalf("ga result source %q, want empty", done.Result.Source)
	}
	if st := atlasCountsOf(jobs); st.Cold != 2 {
		t.Fatalf("cold = %d, want 2: %+v", st.Cold, st)
	}
}

// TestAtlasHitBypassesAdmission pins the quota interaction: answers served
// from the atlas consume no admission tokens and are served even when the
// tenant's quota is exhausted.
func TestAtlasHitBypassesAdmission(t *testing.T) {
	jobs, _ := atlasManager(t, false)
	jobs.EnableAdmission(resilience.AdmissionConfig{Rate: 1e-9, Burst: 1})

	req := validRequest()
	req.Searcher = "ga"
	req.Evals = 200
	runToDone(t, jobs, req) // consumes the only token

	// The bucket is empty: a fresh problem is rejected...
	other := req
	other.Shape = []int{512, 5}
	var admErr *AdmissionError
	if _, err := jobs.Submit(other); !errors.As(err, &admErr) {
		t.Fatalf("expected admission rejection, got %v", err)
	}
	// ...but the solved one is still served, repeatedly.
	for i := 0; i < 3; i++ {
		job, err := jobs.Submit(req)
		if err != nil {
			t.Fatalf("atlas hit %d rejected: %v", i, err)
		}
		if job.Status != JobDone || job.Result.Source != "atlas" {
			t.Fatalf("atlas hit %d: %+v", i, job)
		}
	}
}

// TestAtlasReadonlyServesButNeverWrites pins -atlas-readonly: lookups and
// warm starts work, write-back is disabled.
func TestAtlasReadonlyServesButNeverWrites(t *testing.T) {
	jobs, a := atlasManager(t, true)
	req := validRequest()
	req.Searcher = "ga"
	req.Evals = 200
	runToDone(t, jobs, req)
	st := atlasCountsOf(jobs)
	if st.Writebacks != 0 || a.Stats().Entries != 0 {
		t.Fatalf("read-only atlas was written: %+v", st)
	}
}
