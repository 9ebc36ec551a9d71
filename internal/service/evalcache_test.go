package service

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mindmappings/internal/costmodel"
)

// TestNilEvalCache pins the deprecated stub that callers still compile
// against: NewEvalCache returns nil for any capacity, and both a nil and a
// zero EvalCache miss on every lookup and store nothing (also under
// concurrent use).
func TestNilEvalCache(t *testing.T) {
	for _, capacity := range []int{1 << 14, 0, -1} {
		if c := NewEvalCache(capacity); c != nil {
			t.Fatalf("NewEvalCache(%d) = %p, want nil", capacity, c)
		}
	}
	for _, c := range []*EvalCache{nil, {}} {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					key := fmt.Sprintf("k%d", (g+i)%8)
					c.Put(key, costmodel.Cost{EDP: float64(i)})
					if _, ok := c.Get(key); ok {
						t.Errorf("Get(%s) hit", key)
						return
					}
					if _, ok := c.GetBytes([]byte(key)); ok {
						t.Errorf("GetBytes(%s) hit", key)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestManagerPaysEveryEval runs one seeded ga job twice on the production
// path: both runs pay every evaluation, both results are bit-identical,
// and /metrics carries no eval-cache series.
func TestManagerPaysEveryEval(t *testing.T) {
	req := validRequest()
	req.Searcher = "ga"
	req.Evals = 300
	req.Seed = 7
	registry := NewModelRegistry(t.TempDir(), 1)
	jm := NewJobManager(registry, nil, 1, 4)
	defer jm.Shutdown(context.Background())
	ts := httptest.NewServer(NewServer(jm, registry, nil).Handler())
	defer ts.Close()
	var results []*JobResult
	for i := 0; i < 2; i++ {
		job, err := jm.SubmitAs("acme", req)
		if err != nil {
			t.Fatal(err)
		}
		done, err := jm.Wait(context.Background(), job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done.Status != JobDone || done.Result == nil {
			t.Fatalf("job status %s (%s)", done.Status, done.Error)
		}
		results = append(results, done.Result)
	}

	prom := scrapeProm(t, ts)
	if got := sumValues(seriesValues(t, prom, "costmodel_evals_total")); got != 2*float64(req.Evals) {
		t.Fatalf("costmodel_evals_total = %v, want %d: every eval paid", got, 2*req.Evals)
	}
	for _, line := range strings.Split(prom, "\n") {
		if strings.Contains(line, "eval_cache_") || strings.Contains(line, "tenant_cache_") {
			t.Errorf("/metrics carries a cache series: %s", line)
		}
	}

	a, b := results[0], results[1]
	if math.Float64bits(a.BestEDP) != math.Float64bits(b.BestEDP) || a.Evals != b.Evals ||
		a.Mapping != b.Mapping || a.LoopNest != b.LoopNest || len(a.Trajectory) != len(b.Trajectory) {
		t.Fatalf("rerun diverged: (%v, %d evals, %d points) vs (%v, %d, %d)",
			a.BestEDP, a.Evals, len(a.Trajectory), b.BestEDP, b.Evals, len(b.Trajectory))
	}
	for k := range a.Trajectory {
		g, w := a.Trajectory[k], b.Trajectory[k]
		if g.Eval != w.Eval || math.Float64bits(g.BestEDP) != math.Float64bits(w.BestEDP) {
			t.Fatalf("trajectory point %d = %+v, rerun %+v", k, g, w)
		}
	}
}
