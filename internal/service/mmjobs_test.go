package service

import (
	"context"
	"testing"
)

// mmRequest is the shared mm job used by the service tests: small enough
// to finish quickly, large enough that the gradient loop issues many
// surrogate queries.
func mmRequest(seed int64) SearchRequest {
	return SearchRequest{
		Algo:     "conv1d",
		Shape:    []int{1024, 5},
		Searcher: "mm",
		Model:    "conv1d.surrogate",
		Evals:    60,
		Seed:     seed,
	}
}

func runJobs(t *testing.T, jm *JobManager, reqs []SearchRequest) []*JobResult {
	t.Helper()
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		job, err := jm.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = job.ID
	}
	out := make([]*JobResult, len(ids))
	for i, id := range ids {
		done, err := jm.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if done.Status != JobDone {
			t.Fatalf("job %d status %s (%s)", i, done.Status, done.Error)
		}
		out[i] = done.Result
	}
	return out
}

// TestConcurrentMMJobsMatchSequential pins the isolation contract of the
// shared registry surrogate: four mm jobs running at once on a 4-worker
// manager, all querying the same surrogate, must each produce the exact
// result (best EDP, eval count, trajectory) the same request gets on a
// 1-worker manager that runs them one after another.
func TestConcurrentMMJobsMatchSequential(t *testing.T) {
	dir := modelDir(t, "conv1d.surrogate")
	reqs := make([]SearchRequest, 4)
	for i := range reqs {
		reqs[i] = mmRequest(int64(100 + i))
	}

	run := func(workers int) []*JobResult {
		jm := NewJobManager(NewModelRegistry(dir, 4), nil, workers, 16)
		defer jm.Shutdown(context.Background())
		return runJobs(t, jm, reqs)
	}
	concurrent := run(4)
	sequential := run(1)

	for i := range reqs {
		c, s := concurrent[i], sequential[i]
		if c.BestEDP != s.BestEDP || c.Evals != s.Evals {
			t.Fatalf("job %d diverged when run concurrently: best %v/%v evals %d/%d",
				i, c.BestEDP, s.BestEDP, c.Evals, s.Evals)
		}
		if len(c.Trajectory) != len(s.Trajectory) {
			t.Fatalf("job %d trajectory %d vs %d", i, len(c.Trajectory), len(s.Trajectory))
		}
		for j := range c.Trajectory {
			if c.Trajectory[j].Eval != s.Trajectory[j].Eval || c.Trajectory[j].BestEDP != s.Trajectory[j].BestEDP {
				t.Fatalf("job %d trajectory[%d] %+v vs %+v", i, j, c.Trajectory[j], s.Trajectory[j])
			}
		}
	}
}
