package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mindmappings/internal/modelstore"
	"mindmappings/internal/resilience"
	"mindmappings/internal/trainer"
)

// TestMetricsValuesMatchEvents pins the values, not only the names, of the
// families whose counts the trainer, the model registry, admission and the
// search tracker keep: after one training job, two mm searches through a
// 1-slot registry (one eviction), one GA search, one 429, one 503 and one
// cancelled queued job, each reads the number of its events, and
// admission_in_flight is back at 0 once every job is terminal.
func TestMetricsValuesMatchEvents(t *testing.T) {
	registry := NewModelRegistry(modelDir(t, "a.surrogate", "b.surrogate"), 1)
	jm := NewJobManager(registry, nil, 1, 8)
	store, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pipeline := trainer.New(store, 1, 4)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		jm.Shutdown(ctx)
		pipeline.Shutdown(ctx)
	})
	// Health reads 1 (no shedding) until shedAll drops it to 0, which
	// sheds every tenant.
	var shedAll atomic.Bool
	jm.SetHealth(func() float64 {
		if shedAll.Load() {
			return 0
		}
		return 1
	})
	jm.EnableAdmission(resilience.AdmissionConfig{MaxConcurrent: 2, Thresholds: resilience.Thresholds{MinHealth: 0.5}})
	ts := httptest.NewServer(NewServer(jm, registry, nil).WithTraining(store, pipeline).Handler())
	t.Cleanup(ts.Close)

	submit := func(req SearchRequest, want int) Job {
		t.Helper()
		job, resp := postSearchAs(t, ts, "acme", req)
		if resp.StatusCode != want {
			t.Fatalf("submit %s: %d, want %d", req.Searcher, resp.StatusCode, want)
		}
		return job
	}
	done := func(job Job) Job {
		t.Helper()
		fin := waitJob(t, ts, job.ID, time.Minute)
		if fin.Status != JobDone {
			t.Fatalf("job %s finished %s: %s", job.ID, fin.Status, fin.Error)
		}
		return fin
	}
	cancel := func(job Job) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if fin := waitJob(t, ts, job.ID, time.Minute); fin.Status != JobCancelled {
			t.Fatalf("job %s finished %s, want cancelled", job.ID, fin.Status)
		}
	}

	tresp, body := postJSON(t, ts.URL+"/v1/train", tinyTrainRequest())
	if tresp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/train: %d %s", tresp.StatusCode, body)
	}
	var tjob trainer.Job
	if err := json.Unmarshal(body, &tjob); err != nil {
		t.Fatal(err)
	}
	if tjob = waitTrainJob(t, ts, tjob.ID, 2*time.Minute); tjob.Status != trainer.StatusDone {
		t.Fatalf("training job finished %s: %s", tjob.Status, tjob.Error)
	}

	// Two mm searches on two models through one registry slot: two disk
	// loads, one eviction, no paid evals.
	for i, model := range []string{"a.surrogate", "b.surrogate"} {
		req := mmRequest(int64(i + 1))
		req.Model = model
		done(submit(req, http.StatusAccepted))
	}
	ga := validRequest()
	ga.Searcher = "ga"
	gaDone := done(submit(ga, http.StatusAccepted))

	// A running blocker (on the roofline backend, so its evals stay out of
	// the timeloop count) and a queued job hold the tenant's two slots:
	// the next submit is a 429. Then the queued job and the blocker are
	// cancelled.
	blocker := validRequest()
	blocker.Searcher, blocker.Evals, blocker.Time, blocker.CostModel = "random", 0, "1h", "roofline"
	running := submit(blocker, http.StatusAccepted)
	waitStatus(t, jm, running.ID, JobRunning)
	queued := submit(validRequest(), http.StatusAccepted)
	submit(validRequest(), http.StatusTooManyRequests)
	cancel(queued)
	cancel(running)

	shedAll.Store(true)
	submit(validRequest(), http.StatusServiceUnavailable)
	shedAll.Store(false)

	for series, want := range map[string]float64{
		"trainer_jobs_submitted_total":              1,
		"trainer_jobs_done_total":                   1,
		"trainer_jobs_failed_total":                 0,
		"trainer_jobs_cancelled_total":              0,
		"trainer_jobs_queued":                       0,
		"trainer_jobs_running":                      0,
		"model_registry_disk_loads_total":           2,
		"model_registry_evictions_total":            1,
		"admission_admitted_total":                  5, // two mm, the GA, the blocker and the queued job
		"admission_rejected_total":                  1,
		"admission_shed_total":                      1,
		"admission_in_flight":                       0,
		`costmodel_evals_total{backend="timeloop"}`: float64(gaDone.Result.Evals),
	} {
		if got := promValue(t, ts, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	if gaDone.Result.Evals == 0 {
		t.Fatal("the GA job paid no evals")
	}
}
