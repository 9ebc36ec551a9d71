package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mindmappings/internal/modelstore"
	"mindmappings/internal/resilience"
	"mindmappings/internal/trainer"
)

// testServer spins up the full stack — registry, cache, job manager, HTTP
// handler — against a temp model dir holding the shared test surrogate as
// "conv1d.surrogate". Setting MINDMAPPINGS_FAULTS (same spec as `serve
// -faults`) arms deterministic fault injection on every manager built
// here — the CI chaos-smoke step runs this package's -short suite that
// way, pinning that the service behaves identically under injected eval
// faults absorbed by the retry layer.
func testServer(t *testing.T, workers, queueCap int) (*httptest.Server, *JobManager, *EvalCache) {
	t.Helper()
	dir := modelDir(t, "conv1d.surrogate")
	registry := NewModelRegistry(dir, 4)
	cache := NewEvalCache(1 << 14)
	jobs := NewJobManager(registry, cache, workers, queueCap)
	if faults, err := resilience.ParseFaults(os.Getenv("MINDMAPPINGS_FAULTS")); err != nil {
		t.Fatalf("bad MINDMAPPINGS_FAULTS: %v", err)
	} else if faults != nil {
		jobs.SetFaults(faults)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := jobs.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	ts := httptest.NewServer(NewServer(jobs, registry, cache).Handler())
	t.Cleanup(ts.Close)
	return ts, jobs, cache
}

func postSearch(t *testing.T, ts *httptest.Server, req SearchRequest) (Job, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job Job
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return job, resp
}

func getJob(t *testing.T, ts *httptest.Server, id string) Job {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: %d", id, resp.StatusCode)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job
}

func waitJob(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		job := getJob(t, ts, id)
		if job.Status.Terminal() {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, job.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// promValue scrapes /metrics and returns one series' value; series is the
// name plus label block exactly as exposed. A missing series fails the
// test.
func promValue(t *testing.T, ts *httptest.Server, series string) float64 {
	t.Helper()
	family, _, _ := strings.Cut(series, "{")
	v, ok := seriesValues(t, scrapeProm(t, ts), family)[series]
	if !ok {
		t.Fatalf("/metrics has no series %s", series)
	}
	return v
}

// TestConcurrentSearchService is the subsystem acceptance test: ≥8
// concurrent jobs against one shared registry and eval cache (mixing the
// surrogate-driven mm searcher with black-box baselines), all completing
// with correct results; DELETE stopping an in-flight job; and /metrics
// reporting eval-cache hits once jobs share a problem. Run with -race.
func TestConcurrentSearchService(t *testing.T) {
	ts, _, _ := testServer(t, 4, 32)

	const n = 10
	reqs := make([]SearchRequest, n)
	for i := range reqs {
		reqs[i] = SearchRequest{
			Algo:  "conv1d",
			Shape: []int{1024, 5},
			Evals: 60,
			Seed:  int64(i % 3), // several jobs share seeds => shared eval work
		}
		switch i % 3 {
		case 0:
			reqs[i].Searcher = "mm"
			reqs[i].Model = "conv1d.surrogate"
		case 1:
			reqs[i].Searcher = "sa"
		default:
			reqs[i].Searcher = "random"
		}
	}

	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, resp := postSearch(t, ts, reqs[i])
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("job %d: status %d", i, resp.StatusCode)
				return
			}
			ids[i] = job.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	results := make([]Job, n)
	for i, id := range ids {
		results[i] = waitJob(t, ts, id, 2*time.Minute)
	}
	for i, job := range results {
		if job.Status != JobDone {
			t.Fatalf("job %d (%s): status %s, error %q", i, job.Request.Searcher, job.Status, job.Error)
		}
		if job.Result == nil || job.Result.Evals != 60 {
			t.Fatalf("job %d: bad result %+v", i, job.Result)
		}
		if job.Result.BestEDP <= 0 || job.Result.Mapping == "" || len(job.Result.Trajectory) == 0 {
			t.Fatalf("job %d: incomplete result %+v", i, job.Result)
		}
	}
	// Correctness across sharing: identical requests must produce identical
	// results regardless of scheduling (jobs 2, 5, 8 are random/seed-2...
	// find the pairs dynamically).
	byKey := map[string]Job{}
	for i, job := range results {
		key := fmt.Sprintf("%s/%d", job.Request.Searcher, job.Request.Seed)
		if prev, ok := byKey[key]; ok {
			if prev.Result.BestEDP != job.Result.BestEDP {
				t.Fatalf("jobs with identical requests diverged: %v vs %v (key %s, job %d)",
					prev.Result.BestEDP, job.Result.BestEDP, key, i)
			}
		} else {
			byKey[key] = job
		}
	}

	if done := promValue(t, ts, "search_jobs_done_total"); done < n {
		t.Fatalf("metrics report %v done jobs, want >= %d", done, n)
	}
	if promValue(t, ts, "eval_cache_hits_total") == 0 {
		t.Fatal("jobs sharing problems produced zero eval-cache hits")
	}
	if loads := promValue(t, ts, "model_registry_disk_loads_total"); loads != 1 {
		t.Fatalf("surrogate loaded %v times, want once", loads)
	}
}

func TestCancelInFlightJobViaDELETE(t *testing.T) {
	ts, _, _ := testServer(t, 1, 8)
	job, resp := postSearch(t, ts, SearchRequest{
		Algo:     "conv1d",
		Shape:    []int{1024, 5},
		Searcher: "random",
		Time:     "1h", // would run for an hour without the cancel
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	// Wait until it is actually in flight.
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, ts, job.ID).Status != JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", dresp.StatusCode)
	}
	final := waitJob(t, ts, job.ID, 30*time.Second)
	if final.Status != JobCancelled {
		t.Fatalf("status %s after cancel", final.Status)
	}
	if final.Result != nil && final.Result.Evals == 0 {
		t.Fatal("cancelled job reported a result with no progress")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	ts, _, _ := testServer(t, 1, 8)
	// Occupy the single worker...
	blocker, _ := postSearch(t, ts, SearchRequest{
		Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "random", Time: "1h",
	})
	// ...then cancel a job that is still queued behind it.
	queued, _ := postSearch(t, ts, SearchRequest{
		Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "random", Evals: 10,
	})
	del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	var snap Job
	if err := json.NewDecoder(dresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if snap.Status != JobCancelled {
		t.Fatalf("queued job status %s after cancel", snap.Status)
	}
	// Unblock the worker.
	del2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.ID, nil)
	dresp2, err := http.DefaultClient.Do(del2)
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	waitJob(t, ts, blocker.ID, 30*time.Second)
}

func TestQueueFullReturns503(t *testing.T) {
	ts, _, _ := testServer(t, 1, 1)
	// One job running, one queued; the third must bounce.
	long := SearchRequest{Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "random", Time: "1h"}
	first, _ := postSearch(t, ts, long)
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, ts, first.ID).Status != JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	second, resp := postSearch(t, ts, long)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}
	_, resp = postSearch(t, ts, long)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: %d, want 503", resp.StatusCode)
	}
	for _, id := range []string{first.ID, second.ID} {
		del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		dresp, err := http.DefaultClient.Do(del)
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
	}
}

func TestBadRequestsAndUnknownJobs(t *testing.T) {
	ts, _, _ := testServer(t, 1, 8)
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: %d", resp.StatusCode)
	}
	_, resp2 := postSearch(t, ts, SearchRequest{Algo: "conv1d", Shape: []int{1024, 5}})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("budgetless request: %d", resp2.StatusCode)
	}
	resp3, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp3.StatusCode)
	}
	resp4, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp4.StatusCode)
	}
}

// TestSubmitRejectsUnresolvableRequest pins that a request whose problem
// its algorithm cannot build answers 400 at submit with the resolver's
// error, before it is counted, admitted or journaled.
func TestSubmitRejectsUnresolvableRequest(t *testing.T) {
	ts, jm, _ := testServer(t, 1, 8)
	jm.EnableAdmission(resilience.AdmissionConfig{MaxConcurrent: 8})
	j, err := resilience.OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jm.EnableJournal(j); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		req  SearchRequest
		want string
	}{
		{SearchRequest{Algo: "cnn-layer", Problem: "NoSuchLayer", Searcher: "ga", Evals: 10},
			`service: problem "NoSuchLayer" not found for cnn-layer`},
		{SearchRequest{Algo: "gemm", Shape: []int{16, 16}, Searcher: "ga", Evals: 10},
			"service: gemm shape needs 3 sizes"},
		{SearchRequest{Algo: "gemm", Dims: map[string]int{"zz": 4}, Searcher: "ga", Evals: 10},
			"loopnest: algorithm gemm needs dims"},
	} {
		body, _ := json.Marshal(tc.req)
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got apiError
		json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", body, resp.StatusCode)
			continue
		}
		verr := tc.req.Validate()
		if !strings.HasPrefix(got.Error, tc.want) || verr == nil || got.Error != verr.Error() {
			t.Errorf("%s: error %q, want the resolver's %v (starting %q)", body, got.Error, verr, tc.want)
		}
	}
	for _, series := range []string{"search_jobs_submitted_total", "admission_admitted_total"} {
		if n := promValue(t, ts, series); n != 0 {
			t.Errorf("%s = %v, want 0", series, n)
		}
	}
	if ids, err := j.List(); err != nil || len(ids) != 0 {
		t.Fatalf("journal holds %v (err %v), want no records", ids, err)
	}
}

// TestTrainStatusCodes pins the training endpoints' error statuses to the
// search ones: an unknown job is 404, resuming a done or running job is
// 409, a bad request is 400, and a full or shutting-down training queue is
// 503 with Retry-After, for POST /v1/train/{id}/resume and POST /v1/train.
func TestTrainStatusCodes(t *testing.T) {
	store, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	registry := NewModelRegistry(t.TempDir(), 4)
	jobs := NewJobManager(registry, nil, 1, 4)
	pipeline := trainer.New(store, 1, 1)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		jobs.Shutdown(ctx)
		pipeline.Shutdown(ctx)
	})
	ts := httptest.NewServer(NewServer(jobs, registry, nil).WithTraining(store, pipeline).Handler())
	t.Cleanup(ts.Close)

	done, err := pipeline.Submit(tinyTrainRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.Wait(context.Background(), done.ID); err != nil {
		t.Fatal(err)
	}
	long := tinyTrainRequest()
	long.Samples, long.Epochs = 4000, 500
	submit := func() trainer.Job {
		job, err := pipeline.Submit(long)
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	running := submit()
	deadline := time.Now().Add(30 * time.Second)
	for job, _ := pipeline.Get(running.ID); job.Status != JobRunning; job, _ = pipeline.Get(running.ID) {
		if time.Now().After(deadline) {
			t.Fatalf("training job never started: %s", job.Status)
		}
		time.Sleep(time.Millisecond)
	}
	cancelled := submit()
	pipeline.Cancel(cancelled.ID)
	submit() // takes the queue's one slot

	type check struct {
		name, path string
		body       any
		want       int
	}
	run := func(checks []check) {
		t.Helper()
		for _, c := range checks {
			resp, body := postJSON(t, ts.URL+c.path, c.body)
			if resp.StatusCode != c.want {
				t.Errorf("%s: POST %s = %d %s, want %d", c.name, c.path, resp.StatusCode, body, c.want)
			}
			if retry := resp.Header.Get("Retry-After"); (c.want == http.StatusServiceUnavailable) != (retry != "") {
				t.Errorf("%s: status %d with Retry-After %q", c.name, resp.StatusCode, retry)
			}
		}
	}
	run([]check{
		{"unknown job", "/v1/train/nope/resume", nil, http.StatusNotFound},
		{"done job", "/v1/train/" + done.ID + "/resume", nil, http.StatusConflict},
		{"running job", "/v1/train/" + running.ID + "/resume", nil, http.StatusConflict},
		{"resume into a full queue", "/v1/train/" + cancelled.ID + "/resume", nil, http.StatusServiceUnavailable},
		{"submit to a full queue", "/v1/train", long, http.StatusServiceUnavailable},
		{"bad request", "/v1/train", trainer.Request{}, http.StatusBadRequest},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := pipeline.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	run([]check{
		{"resume while shutting down", "/v1/train/" + cancelled.ID + "/resume", nil, http.StatusServiceUnavailable},
		{"submit while shutting down", "/v1/train", long, http.StatusServiceUnavailable},
	})
}

func TestModelsEndpoint(t *testing.T) {
	ts, _, _ := testServer(t, 1, 8)
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Models []ModelInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Models) != 1 || body.Models[0].Name != "conv1d.surrogate" {
		t.Fatalf("models: %+v", body.Models)
	}
}

// TestFailedJobSurfacesError covers the failure path: an mm request naming
// a model trained for a different algorithm fails cleanly with an error.
func TestFailedJobSurfacesError(t *testing.T) {
	ts, _, _ := testServer(t, 1, 8)
	job, resp := postSearch(t, ts, SearchRequest{
		Algo:     "cnn-layer",
		Problem:  "ResNet_Conv_4",
		Searcher: "mm",
		Model:    "conv1d.surrogate", // wrong algorithm
		Evals:    10,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	final := waitJob(t, ts, job.ID, time.Minute)
	if final.Status != JobFailed || final.Error == "" {
		t.Fatalf("status %s, error %q", final.Status, final.Error)
	}
}

// TestZeroEvalJobSerializesCleanly regression-tests the +Inf hole: a job
// whose budget expires before the first evaluation has no result (its
// best-so-far is +Inf, which JSON cannot carry), and both the job body and
// the full listing must still decode.
func TestZeroEvalJobSerializesCleanly(t *testing.T) {
	ts, _, _ := testServer(t, 1, 8)
	job, resp := postSearch(t, ts, SearchRequest{
		Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "random", Time: "1ns",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	final := waitJob(t, ts, job.ID, 30*time.Second)
	if final.Status != JobDone {
		t.Fatalf("status %s", final.Status)
	}
	if final.Result != nil {
		t.Fatalf("zero-eval job carried a result: %+v", final.Result)
	}
	lresp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var listing struct {
		Jobs []Job `json:"jobs"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatalf("listing with zero-eval job does not decode: %v", err)
	}
	if len(listing.Jobs) != 1 {
		t.Fatalf("listing has %d jobs", len(listing.Jobs))
	}
}

// TestJobRetentionEvictsOldTerminalJobs checks the terminal-job bound: a
// long-running server must not accumulate finished results forever.
func TestJobRetentionEvictsOldTerminalJobs(t *testing.T) {
	dir := modelDir(t, "conv1d.surrogate")
	jobs := NewJobManager(NewModelRegistry(dir, 4), NewEvalCache(1024), 1, 16)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		jobs.Shutdown(ctx)
	})
	jobs.SetJobRetention(3)
	var ids []string
	for i := 0; i < 5; i++ {
		job, err := jobs.Submit(SearchRequest{
			Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "random", Evals: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := jobs.Wait(ctx, job.ID); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
	}
	if got := len(jobs.List()); got != 3 {
		t.Fatalf("retained %d jobs, want 3", got)
	}
	if _, ok := jobs.Get(ids[0]); ok {
		t.Fatal("oldest job survived eviction")
	}
	if _, ok := jobs.Get(ids[4]); !ok {
		t.Fatal("newest job was evicted")
	}
}

// TestShutdownCancelsInFlightJobs checks manager teardown: running jobs
// finish as cancelled, and new submissions are rejected.
func TestShutdownCancelsInFlightJobs(t *testing.T) {
	dir := modelDir(t, "conv1d.surrogate")
	jobs := NewJobManager(NewModelRegistry(dir, 4), NewEvalCache(1024), 2, 8)
	job, err := jobs.Submit(SearchRequest{
		Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "random", Time: "1h",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := jobs.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	snap, ok := jobs.Get(job.ID)
	if !ok || snap.Status != JobCancelled {
		t.Fatalf("after shutdown: %+v", snap)
	}
	if _, err := jobs.Submit(SearchRequest{
		Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "random", Evals: 1,
	}); err == nil {
		t.Fatal("submit accepted after shutdown")
	}
}
