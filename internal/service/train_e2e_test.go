package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"mindmappings/internal/modelstore"
	"mindmappings/internal/surrogate"
	"mindmappings/internal/trainer"
)

// testTrainingServer spins up the full stack with training enabled against
// an EMPTY model directory and store — the cold-start scenario: every
// model the server ever serves must come in over HTTP.
func testTrainingServer(t *testing.T) (*httptest.Server, *trainer.Pipeline, *modelstore.Store) {
	t.Helper()
	return testTrainingServerAt(t, t.TempDir())
}

// testTrainingServerAt is testTrainingServer over the store directory dir.
func testTrainingServerAt(t *testing.T, dir string) (*httptest.Server, *trainer.Pipeline, *modelstore.Store) {
	t.Helper()
	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	registry := NewModelRegistry(t.TempDir(), 4)
	jobs := NewJobManager(registry, nil, 2, 16)
	pipeline := trainer.New(store, 1, 8)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := jobs.Shutdown(ctx); err != nil {
			t.Errorf("jobs shutdown: %v", err)
		}
		if err := pipeline.Shutdown(ctx); err != nil {
			t.Errorf("pipeline shutdown: %v", err)
		}
	})
	ts := httptest.NewServer(NewServer(jobs, registry, nil).WithTraining(store, pipeline).Handler())
	t.Cleanup(ts.Close)
	return ts, pipeline, store
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// tinyTrainRequest is a seconds-scale inline-einsum training request.
func tinyTrainRequest() trainer.Request {
	return trainer.Request{
		Einsum:      "O[a,b] += A[a,c] * B[c,b]",
		Samples:     400,
		Problems:    3,
		Epochs:      3,
		HiddenSizes: []int{16},
		Seed:        5,
	}
}

func waitTrainJob(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) trainer.Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(ts.URL + "/v1/train/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var job trainer.Job
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if job.Status.Terminal() {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("training job %s stuck in %s (%+v)", id, job.Status, job.Progress)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHTTPTrainSearchClosedLoop is the PR's acceptance test and the CI
// -short smoke: with an empty model directory, one HTTP conversation
// trains a surrogate for an inline einsum workload and then completes an
// mm search against it — and a search naming the stored artifact
// explicitly returns bit-identical results to "model":"auto".
func TestHTTPTrainSearchClosedLoop(t *testing.T) {
	storeDir := t.TempDir()
	ts, _, _ := testTrainingServerAt(t, storeDir)

	// Cold start: nothing stored, so an auto search must fail cleanly.
	job, resp := postSearch(t, ts, SearchRequest{
		Einsum: "O[a,b] += A[a,c] * B[c,b]",
		Dims:   map[string]int{"a": 64, "b": 64, "c": 64},
		Model:  "auto",
		Evals:  40,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cold auto search: %d", resp.StatusCode)
	}
	if final := waitJob(t, ts, job.ID, time.Minute); final.Status != JobFailed {
		t.Fatalf("cold auto search finished %s, want failed (no model yet)", final.Status)
	}

	// Train over HTTP.
	tresp, body := postJSON(t, ts.URL+"/v1/train", tinyTrainRequest())
	if tresp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/train: %d (%s)", tresp.StatusCode, body)
	}
	var tjob trainer.Job
	if err := json.Unmarshal(body, &tjob); err != nil {
		t.Fatal(err)
	}
	if loc := tresp.Header.Get("Location"); loc != "/v1/train/"+tjob.ID {
		t.Fatalf("Location %q", loc)
	}
	done := waitTrainJob(t, ts, tjob.ID, 2*time.Minute)
	if done.Status != trainer.StatusDone || done.Artifact == nil {
		t.Fatalf("training: %s (%s)", done.Status, done.Error)
	}
	artifact := done.Artifact.ID

	// The artifact shows up in /v1/models.
	mresp, mbody := getBody(t, ts.URL+"/v1/models")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/models: %d", mresp.StatusCode)
	}
	var models struct {
		Store []modelstore.Manifest `json:"store"`
	}
	if err := json.Unmarshal(mbody, &models); err != nil {
		t.Fatal(err)
	}
	if len(models.Store) != 1 || models.Store[0].ID != artifact {
		t.Fatalf("store listing: %+v", models.Store)
	}

	// Search with the explicit artifact ID and with auto-resolution.
	search := func(model string) *JobResult {
		job, resp := postSearch(t, ts, SearchRequest{
			Einsum: "O[a,b] += A[a,c] * B[c,b]",
			Dims:   map[string]int{"a": 64, "b": 64, "c": 64},
			Model:  model,
			Evals:  60,
			Seed:   7,
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("search with model %q: %d", model, resp.StatusCode)
		}
		final := waitJob(t, ts, job.ID, 2*time.Minute)
		if final.Status != JobDone || final.Result == nil {
			t.Fatalf("search with model %q: %s (%s)", model, final.Status, final.Error)
		}
		return final.Result
	}
	explicit := search(artifact)
	auto := search("auto")
	if explicit.BestEDP != auto.BestEDP || explicit.Mapping != auto.Mapping || explicit.Evals != auto.Evals {
		t.Fatalf("explicit vs auto diverged: %v/%v, %q/%q",
			explicit.BestEDP, auto.BestEDP, explicit.Mapping, auto.Mapping)
	}
	if explicit.Method != "MM" {
		t.Fatalf("method %q, want MM", explicit.Method)
	}

	// Store state survives a reopen (the on-disk layout is the truth).
	st2, err := modelstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Get(artifact); !ok {
		t.Fatal("artifact not visible after reopen")
	}

	// DELETE evicts the artifact from the registry's memory too: a search
	// naming the deleted ID must fail, not serve the cached copy.
	dreq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/"+artifact, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /v1/models/%s: %d", artifact, dresp.StatusCode)
	}
	job, resp = postSearch(t, ts, SearchRequest{
		Einsum: "O[a,b] += A[a,c] * B[c,b]",
		Dims:   map[string]int{"a": 64, "b": 64, "c": 64},
		Model:  artifact,
		Evals:  20,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-delete search submit: %d", resp.StatusCode)
	}
	if final := waitJob(t, ts, job.ID, time.Minute); final.Status != JobFailed {
		t.Fatalf("search against deleted artifact finished %s (served from stale memory?)", final.Status)
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestTrainOnMissTrainsAndSearches covers the one-call cold start: a
// search with "model":"auto" and train_on_miss trains, publishes, and then
// searches — and a concurrent identical search shares the same training
// run instead of spawning a second one.
func TestTrainOnMissTrainsAndSearches(t *testing.T) {
	ts, pipeline, _ := testTrainingServer(t)
	req := SearchRequest{
		Einsum:      "O[a,b] += A[a,c] * B[c,b]",
		Dims:        map[string]int{"a": 64, "b": 64, "c": 64},
		Model:       "auto",
		TrainOnMiss: &trainer.Request{Samples: 400, Problems: 3, Epochs: 3, HiddenSizes: []int{16}, Seed: 5},
		Evals:       50,
		Seed:        3,
	}
	first, resp := postSearch(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	second, resp2 := postSearch(t, ts, req)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp2.StatusCode)
	}
	f1 := waitJob(t, ts, first.ID, 3*time.Minute)
	f2 := waitJob(t, ts, second.ID, 3*time.Minute)
	if f1.Status != JobDone || f2.Status != JobDone {
		t.Fatalf("jobs: %s (%s) / %s (%s)", f1.Status, f1.Error, f2.Status, f2.Error)
	}
	if f1.Result.BestEDP != f2.Result.BestEDP {
		t.Fatalf("identical train-on-miss searches diverged: %v vs %v", f1.Result.BestEDP, f2.Result.BestEDP)
	}
	// One training run served both searches.
	if st := pipeline.Stats(); st.Submitted != 1 {
		t.Fatalf("training runs: %+v, want 1 submitted", st)
	}

	// Validation: train_on_miss without "auto" is rejected up front.
	bad := req
	bad.Model = "explicit.surrogate"
	if _, resp := postSearch(t, ts, bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("train_on_miss without auto: %d", resp.StatusCode)
	}
}

// TestTrainCancelAndResumeOverHTTP drives DELETE /v1/train/{id} and
// POST /v1/train/{id}/resume: a cancelled run keeps its checkpoint and the
// resumed run finishes with the full loss history.
func TestTrainCancelAndResumeOverHTTP(t *testing.T) {
	ts, _, _ := testTrainingServer(t)
	req := tinyTrainRequest()
	req.Samples = 1500
	req.Epochs = 80
	req.HiddenSizes = []int{32, 32}
	tresp, body := postJSON(t, ts.URL+"/v1/train", req)
	if tresp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/train: %d", tresp.StatusCode)
	}
	var tjob trainer.Job
	if err := json.Unmarshal(body, &tjob); err != nil {
		t.Fatal(err)
	}
	// Wait for a couple of completed epochs (checkpoints exist).
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, b := getBody(t, ts.URL+"/v1/train/"+tjob.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET train job: %d", resp.StatusCode)
		}
		var snap trainer.Job
		if err := json.Unmarshal(b, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Progress.Epoch >= 2 {
			break
		}
		if snap.Status.Terminal() {
			t.Fatalf("job finished before cancel: %s", snap.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached epoch 2: %+v", snap.Progress)
		}
		time.Sleep(2 * time.Millisecond)
	}
	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/train/"+tjob.ID, nil)
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
	cancelled := waitTrainJob(t, ts, tjob.ID, 30*time.Second)
	if cancelled.Status != trainer.StatusCancelled || !cancelled.Resumable {
		t.Fatalf("after cancel: %s resumable=%v", cancelled.Status, cancelled.Resumable)
	}

	rresp, rbody := postJSON(t, ts.URL+"/v1/train/"+tjob.ID+"/resume", struct{}{})
	if rresp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume: %d (%s)", rresp.StatusCode, rbody)
	}
	var rjob trainer.Job
	if err := json.Unmarshal(rbody, &rjob); err != nil {
		t.Fatal(err)
	}
	if rjob.ResumedFrom != tjob.ID {
		t.Fatalf("resumed-from %q", rjob.ResumedFrom)
	}
	done := waitTrainJob(t, ts, rjob.ID, 5*time.Minute)
	if done.Status != trainer.StatusDone || done.Artifact == nil {
		t.Fatalf("resumed: %s (%s)", done.Status, done.Error)
	}
	if len(done.Artifact.TrainLoss) != 80 {
		t.Fatalf("resumed artifact has %d epochs of history, want 80", len(done.Artifact.TrainLoss))
	}
}

// TestAutoResolutionPinsCostModel checks that "auto" never serves a
// surrogate approximating a different f: an artifact trained against
// roofline must not resolve for a timeloop-scored search (and vice versa
// it must resolve for a roofline search).
func TestAutoResolutionPinsCostModel(t *testing.T) {
	ts, _, _ := testTrainingServer(t)
	req := tinyTrainRequest()
	req.CostModel = "roofline"
	tresp, body := postJSON(t, ts.URL+"/v1/train", req)
	if tresp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/train: %d (%s)", tresp.StatusCode, body)
	}
	var tjob trainer.Job
	if err := json.Unmarshal(body, &tjob); err != nil {
		t.Fatal(err)
	}
	if done := waitTrainJob(t, ts, tjob.ID, 2*time.Minute); done.Status != trainer.StatusDone {
		t.Fatalf("training: %s (%s)", done.Status, done.Error)
	}
	search := func(costModel string) Job {
		job, resp := postSearch(t, ts, SearchRequest{
			Einsum:    "O[a,b] += A[a,c] * B[c,b]",
			Dims:      map[string]int{"a": 64, "b": 64, "c": 64},
			Model:     "auto",
			CostModel: costModel,
			Evals:     30,
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("search (%s): %d", costModel, resp.StatusCode)
		}
		return waitJob(t, ts, job.ID, time.Minute)
	}
	if final := search(""); final.Status != JobFailed {
		t.Fatalf("timeloop-scored auto search used a roofline-trained surrogate: %s", final.Status)
	}
	if final := search("roofline"); final.Status != JobDone {
		t.Fatalf("roofline auto search: %s (%s)", final.Status, final.Error)
	}
}

// TestTrainingDisabledAnswers503 pins the no-store configuration: training
// endpoints refuse politely, search still works.
func TestTrainingDisabledAnswers503(t *testing.T) {
	ts, _ := testServer(t, 1, 8)
	resp, _ := postJSON(t, ts.URL+"/v1/train", tinyTrainRequest())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /v1/train without store: %d", resp.StatusCode)
	}
	gresp, _ := getBody(t, ts.URL+"/v1/train")
	if gresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /v1/train without store: %d", gresp.StatusCode)
	}
	// "auto" resolution also needs the store.
	job, resp2 := postSearch(t, ts, SearchRequest{
		Algo: "conv1d", Shape: []int{1024, 5}, Model: "auto", Evals: 10,
	})
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("auto search submit: %d", resp2.StatusCode)
	}
	if final := waitJob(t, ts, job.ID, time.Minute); final.Status != JobFailed {
		t.Fatalf("auto search without store finished %s", final.Status)
	}
}

// TestTrainerMetricsExposed checks /metrics carries the trainer and store
// series once training is enabled.
func TestTrainerMetricsExposed(t *testing.T) {
	ts, _, _ := testTrainingServer(t)
	tresp, body := postJSON(t, ts.URL+"/v1/train", tinyTrainRequest())
	if tresp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/train: %d", tresp.StatusCode)
	}
	var tjob trainer.Job
	if err := json.Unmarshal(body, &tjob); err != nil {
		t.Fatal(err)
	}
	waitTrainJob(t, ts, tjob.ID, 2*time.Minute)
	if n := promValue(t, ts, "trainer_jobs_done_total"); n != 1 {
		t.Fatalf("trainer_jobs_done_total = %v, want 1", n)
	}
	if n := promValue(t, ts, "store_artifacts"); n != 1 {
		t.Fatalf("store_artifacts = %v, want 1", n)
	}
	if n := promValue(t, ts, "store_corrupt_manifests"); n != 0 {
		t.Fatalf("store_corrupt_manifests = %v, want 0", n)
	}
}

// TestGCModelsOverHTTP drives POST /v1/models/gc: with three versions of
// one workload stored, ?keep=1 removes the two oldest, /v1/models then
// lists one artifact, a bad keep is a 400, and an artifact the registry
// had loaded before the GC is no longer served.
func TestGCModelsOverHTTP(t *testing.T) {
	ts, _, store := testTrainingServer(t)
	var ids []string
	for i := 0; i < 3; i++ {
		sur, err := surrogate.Load(bytes.NewReader(surrogateBytes(t)))
		if err != nil {
			t.Fatal(err)
		}
		sur.Net.Layers[0].B[0] += float64(i) // distinct content, same workload
		m, err := store.Publish(sur, modelstore.PublishMeta{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, m.ID)
	}

	search := func(model string) (Job, int) {
		job, resp := postSearch(t, ts, SearchRequest{
			Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "mm", Model: model, Evals: 20, Seed: 1,
		})
		if resp.StatusCode != http.StatusAccepted {
			return job, resp.StatusCode
		}
		return waitJob(t, ts, job.ID, 30*time.Second), resp.StatusCode
	}
	// Load the oldest version into the registry.
	if job, code := search(ids[0]); code != http.StatusAccepted || job.Status != JobDone {
		t.Fatalf("search on %s before GC: %d %s %s", ids[0], code, job.Status, job.Error)
	}

	for _, q := range []string{"0", "x"} {
		if resp, _ := postJSON(t, ts.URL+"/v1/models/gc?keep="+q, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("keep=%s: %d, want 400", q, resp.StatusCode)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/models/gc?keep=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keep=1: %d %s", resp.StatusCode, body)
	}
	var gc struct {
		Removed []string `json:"removed"`
	}
	if err := json.Unmarshal(body, &gc); err != nil {
		t.Fatal(err)
	}
	slices.Sort(gc.Removed)
	want := []string{ids[0], ids[1]}
	slices.Sort(want)
	if !slices.Equal(gc.Removed, want) {
		t.Fatalf("removed %v, want %v", gc.Removed, want)
	}

	_, body = getBody(t, ts.URL+"/v1/models")
	var listing struct {
		Store []modelstore.Manifest `json:"store"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Store) != 1 || listing.Store[0].ID != ids[2] {
		t.Fatalf("store after GC lists %+v, want only %s", listing.Store, ids[2])
	}

	if job, code := search(ids[0]); code == http.StatusAccepted && job.Status == JobDone {
		t.Fatalf("GC'd artifact %s still served", ids[0])
	}
	if job, code := search(ids[2]); code != http.StatusAccepted || job.Status != JobDone {
		t.Fatalf("kept artifact %s: %d %s %s", ids[2], code, job.Status, job.Error)
	}
}

// TestTrainRejectsMoreProblemsThanTheSampleSpace: a training request for
// more distinct problems than its workload's sample space holds is a 400
// naming the count, not a job that spins forever drawing duplicates.
func TestTrainRejectsMoreProblemsThanTheSampleSpace(t *testing.T) {
	ts, _, _ := testTrainingServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/train", trainer.Request{Algo: "conv1d", Problems: 57})
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("only 56")) {
		t.Fatalf("POST /v1/train with 57 conv1d problems = %d %s, want 400 naming 56", resp.StatusCode, body)
	}
}
