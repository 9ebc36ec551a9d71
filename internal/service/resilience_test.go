package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mindmappings/internal/atlas"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/resilience"
	"mindmappings/internal/search"
	"mindmappings/internal/stats"
)

// newTestManager builds a JobManager over the shared test surrogate dir
// with cleanup registered; tests wire journal/admission/faults themselves.
func newTestManager(t *testing.T, workers, queueCap int) *JobManager {
	t.Helper()
	jm := NewJobManager(NewModelRegistry(modelDir(t, "conv1d.surrogate"), 4), nil, workers, queueCap)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := jm.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return jm
}

func waitStatus(t *testing.T, jm *JobManager, id string, want JobStatus) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap, ok := jm.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if snap.Status == want {
			return
		}
		if snap.Status.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s", id, snap.Status, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFastJobLeavesNoJournalRecord pins the order of a job's queued
// journal record and its delete at finish. The failpoint holds the queued
// write until the job is done, for at most 200 ms: were the record
// written after the job is enqueued and the manager unlocked, the job would
// finish first and the late write would leave a stale record, which the
// next EnableJournal runs again.
func TestFastJobLeavesNoJournalRecord(t *testing.T) {
	jm := newTestManager(t, 1, 4)
	j, err := resilience.OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jm.EnableJournal(j); err != nil {
		t.Fatal(err)
	}
	var held atomic.Bool
	j.SetFailpoint(func(string) error {
		if held.CompareAndSwap(false, true) {
			deadline := time.Now().Add(200 * time.Millisecond)
			for jm.met.done.Value() == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
		return nil
	})
	job, err := jm.Submit(validRequest())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if done, err := jm.Wait(ctx, job.ID); err != nil || done.Status != JobDone {
		t.Fatalf("job: %v, status %s (%s)", err, done.Status, done.Error)
	}
	if ids, _ := j.List(); len(ids) != 0 {
		t.Fatalf("journal holds %v after the job finished", ids)
	}
}

// TestKillAndRecoverResumesBitCompatible is the crash-recovery acceptance
// test: a journaled search job hard-killed mid-run (simulated by a
// point-in-time copy of the journal directory — exactly the disk state a
// kill -9 leaves) is recovered by a fresh manager, resumes from its last
// checkpoint, and completes with the identical result and trajectory the
// uninterrupted run produces.
func TestKillAndRecoverResumesBitCompatible(t *testing.T) {
	dir := modelDir(t, "conv1d.surrogate")
	req := SearchRequest{
		Algo: "conv1d", Shape: []int{1024, 5},
		Searcher: "mm", Model: "conv1d.surrogate",
		Evals: 20000, Seed: 11,
	}

	// The uninterrupted reference run.
	ref := func() Job {
		jm := NewJobManager(NewModelRegistry(dir, 4), nil, 1, 4)
		defer jm.Shutdown(context.Background())
		job, err := jm.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		done, err := jm.Wait(ctx, job.ID)
		if err != nil || done.Status != JobDone {
			t.Fatalf("reference run: status %s, err %v", done.Status, err)
		}
		return done
	}()

	// First "process": journal on, checkpoints frequent; snapshot the
	// journal directory while the job is mid-search.
	liveDir := t.TempDir()
	j1, err := resilience.OpenJournal(liveDir)
	if err != nil {
		t.Fatal(err)
	}
	jm1 := NewJobManager(NewModelRegistry(dir, 4), nil, 1, 4)
	jm1.SetCheckpointInterval(500)
	if n, err := jm1.EnableJournal(j1); err != nil || n != 0 {
		t.Fatalf("fresh journal recovered %d jobs, err %v", n, err)
	}
	job, err := jm1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		snap, _ := jm1.Get(job.ID)
		if snap.CheckpointEval > 0 {
			break
		}
		if snap.Status.Terminal() {
			t.Fatalf("job finished (%s) before a checkpoint could be captured", snap.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint within a minute")
		}
		time.Sleep(time.Millisecond)
	}
	killedDir := t.TempDir()
	ents, err := os.ReadDir(liveDir)
	if err != nil {
		t.Fatal(err)
	}
	copied := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".") { // tmp staging debris mid-Put
			continue
		}
		raw, err := os.ReadFile(filepath.Join(liveDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(killedDir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		copied++
	}
	if copied == 0 {
		t.Fatal("journal snapshot is empty")
	}
	jm1.Cancel(job.ID)
	if err := jm1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Second "process": recover from the kill-time snapshot and finish.
	j2, err := resilience.OpenJournal(killedDir)
	if err != nil {
		t.Fatal(err)
	}
	jm2 := NewJobManager(NewModelRegistry(dir, 4), nil, 1, 4)
	defer jm2.Shutdown(context.Background())
	n, err := jm2.EnableJournal(j2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d jobs, want 1", n)
	}
	if jm2.Stats().Recovered != 1 {
		t.Fatalf("recovered counter %d, want 1", jm2.Stats().Recovered)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, err := jm2.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != JobDone {
		t.Fatalf("recovered job finished %s: %s", got.Status, got.Error)
	}
	if got.Result.Evals != ref.Result.Evals || got.Result.BestEDP != ref.Result.BestEDP {
		t.Fatalf("recovered run diverged: %d evals best %v, reference %d evals best %v",
			got.Result.Evals, got.Result.BestEDP, ref.Result.Evals, ref.Result.BestEDP)
	}
	if got.Result.Mapping != ref.Result.Mapping {
		t.Fatalf("recovered best mapping diverged:\n  %s\nvs\n  %s", got.Result.Mapping, ref.Result.Mapping)
	}
	if len(got.Result.Trajectory) != len(ref.Result.Trajectory) {
		t.Fatalf("trajectory lengths diverged: %d vs %d", len(got.Result.Trajectory), len(ref.Result.Trajectory))
	}
	for i := range ref.Result.Trajectory {
		if got.Result.Trajectory[i].Eval != ref.Result.Trajectory[i].Eval ||
			got.Result.Trajectory[i].BestEDP != ref.Result.Trajectory[i].BestEDP {
			t.Fatalf("trajectory diverged at sample %d", i)
		}
	}
	// The finished job's record is gone: nothing to recover on a third start.
	if ids, _ := j2.List(); len(ids) != 0 {
		t.Fatalf("terminal job left journal records: %v", ids)
	}
}

// TestRecoveredJobEventsCarryRestoredPrefix pins a journal-recovered
// job's event history as the one record of its trajectory: GET
// /v1/jobs/{id}/events and the /trace events both hold the running event,
// then every sample of the result's trajectory, starting with the
// checkpoint's restored prefix, then the terminal event.
func TestRecoveredJobEventsCarryRestoredPrefix(t *testing.T) {
	dir := modelDir(t, "conv1d.surrogate")
	req := SearchRequest{
		Algo: "conv1d", Shape: []int{1024, 5},
		Searcher: "mm", Model: "conv1d.surrogate",
		Evals: 20000, Seed: 11,
	}
	// First process: read the job's journal record mid-search, the state a
	// kill -9 leaves on disk, then stop.
	j1, err := resilience.OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jm1 := NewJobManager(NewModelRegistry(dir, 4), nil, 1, 4)
	jm1.SetCheckpointInterval(500)
	if _, err := jm1.EnableJournal(j1); err != nil {
		t.Fatal(err)
	}
	job, err := jm1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	var rec journalRecord
	for deadline := time.Now().Add(time.Minute); rec.Checkpoint == nil; time.Sleep(time.Millisecond) {
		if snap, _ := jm1.Get(job.ID); snap.Status.Terminal() || time.Now().After(deadline) {
			t.Fatalf("no checkpoint journaled (status %s)", snap.Status)
		}
		if err := j1.Get(job.ID, &rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jm1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The checkpoint was written by this tracker, so all of its trajectory
	// is the restored prefix.
	prefix := rec.Checkpoint.Trajectory
	if len(prefix) == 0 {
		t.Fatal("the checkpoint restores no trajectory prefix")
	}

	// Second process: recover the record and run the job to done.
	j2, err := resilience.OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Put(rec.ID, rec); err != nil {
		t.Fatal(err)
	}
	registry := NewModelRegistry(dir, 4)
	jm2 := NewJobManager(registry, nil, 1, 4)
	defer jm2.Shutdown(context.Background())
	if n, err := jm2.EnableJournal(j2); err != nil || n != 1 {
		t.Fatalf("EnableJournal = %d, %v; want 1 recovered", n, err)
	}
	ts := httptest.NewServer(NewServer(jm2, registry, nil).Handler())
	defer ts.Close()
	done := waitJob(t, ts, job.ID, 2*time.Minute)
	if done.Status != JobDone || done.Result == nil || done.CheckpointEval == 0 {
		t.Fatalf("recovered job: status %s (%s), checkpoint eval %d", done.Status, done.Error, done.CheckpointEval)
	}
	traj := done.Result.Trajectory
	if len(traj) <= len(prefix) {
		t.Fatalf("trajectory has %d samples, the restored prefix alone %d", len(traj), len(prefix))
	}
	for i, s := range prefix {
		if p := traj[i]; p.Eval != s.Eval || p.BestEDP != s.BestEDP || p.ElapsedMS != float64(s.Elapsed.Microseconds())/1e3 {
			t.Fatalf("trajectory sample %d is %+v, restored prefix sample %+v", i, p, s)
		}
	}

	check := func(path string, events []ProgressEvent) {
		t.Helper()
		if len(events) != len(traj)+2 {
			t.Fatalf("%s: %d events, want running + %d samples + terminal", path, len(events), len(traj))
		}
		if first := events[0]; first.Status != JobRunning || first.Eval != 0 {
			t.Fatalf("%s: first event %+v, want the running event", path, first)
		}
		if last := events[len(events)-1]; last.Status != JobDone || last.Eval != done.Result.Evals {
			t.Fatalf("%s: last event %+v, want the terminal event", path, last)
		}
		for i, p := range traj {
			if ev := events[i+1]; ev.Status != JobRunning || ev.Eval != p.Eval || ev.BestEDP != p.BestEDP || ev.ElapsedMS != p.ElapsedMS {
				t.Fatalf("%s: event %d is %+v, trajectory sample %+v", path, i+1, ev, p)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	check("/events", sseEvents(t, bufio.NewScanner(resp.Body)))
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var body struct{ Events []ProgressEvent }
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	check("/trace", body.Events)
}

// TestRecoveredUnresolvableJobFails guards journal recovery: a recovered
// record whose request no longer resolves (its workload or Table-1 problem
// is gone) ends failed with the resolver's error and its record is
// deleted, while resolvable neighbors run to done and write back to the
// atlas. Snapshots are taken throughout, so -race can catch a job record
// written outside jm.mu on a recovered job's first run.
func TestRecoveredUnresolvableJobFails(t *testing.T) {
	j, err := resilience.OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		req  SearchRequest
		want string // error prefix; "" means the job must finish done
	}
	recs := map[string]rec{
		"f1": {SearchRequest{Algo: "cnn-layer", Problem: "NoSuchLayer", Searcher: "ga", Evals: 10},
			`service: problem "NoSuchLayer" not found for cnn-layer`},
		"f2": {SearchRequest{Algo: "retired-workload", Shape: []int{8}, Searcher: "ga", Evals: 10},
			`service: loopnest: unknown algorithm "retired-workload"`},
	}
	const resolvable = 6
	for i := 0; i < resolvable; i++ {
		req := validRequest()
		req.Shape = []int{64 << i, 5}
		recs[fmt.Sprintf("d%d", i)] = rec{req, ""}
	}
	for id, r := range recs {
		if err := j.Put(id, journalRecord{ID: id, Status: JobQueued, Request: r.req, Created: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	at, err := atlas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jm := newTestManager(t, 2, 4)
	jm.EnableAtlas(at, false)
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
				jm.List()
			}
		}
	}()
	if n, err := jm.EnableJournal(j); err != nil || n != len(recs) {
		t.Fatalf("EnableJournal = %d, %v; want %d recovered", n, err, len(recs))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for id, r := range recs {
		done, err := jm.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case r.want == "" && done.Status != JobDone:
			t.Errorf("job %s: %s (%s), want done", id, done.Status, done.Error)
		case r.want != "" && (done.Status != JobFailed || !strings.HasPrefix(done.Error, r.want)):
			t.Errorf("job %s: %s %q, want failed %q", id, done.Status, done.Error, r.want)
		}
	}
	close(stop)
	<-polled
	if ids, err := j.List(); err != nil || len(ids) != 0 {
		t.Fatalf("journal holds %v (err %v) after every job ended", ids, err)
	}
	if n := jm.met.atlasWritebacks.Value(); n != resolvable {
		t.Fatalf("atlas write-backs = %d, want %d", n, resolvable)
	}
}

// TestRecoveredRecordWithRetiredFieldRuns pins that journal recovery
// stays lenient about request fields the service no longer defines: a
// record written when requests still carried "parallelism" recovers, runs
// to done, and finds the same result as the request submitted today. HTTP
// bodies are decoded strictly; journal records must not be, or jobs
// drained across an upgrade would be stranded.
func TestRecoveredRecordWithRetiredFieldRuns(t *testing.T) {
	j, err := resilience.OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const request = `{"algo":"conv1d","shape":[1024,5],"searcher":"ga","evals":120,"seed":7`
	rec := `{"id":"old","status":"queued","request":` + request + `,"parallelism":8},"created":"2026-01-02T03:04:05Z"}`
	if err := j.Put("old", json.RawMessage(rec)); err != nil {
		t.Fatal(err)
	}
	jm := newTestManager(t, 1, 4)
	if n, err := jm.EnableJournal(j); err != nil || n != 1 {
		t.Fatalf("EnableJournal = %d, %v; want 1 recovered", n, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	old, err := jm.Wait(ctx, "old")
	if err != nil {
		t.Fatal(err)
	}
	if old.Status != JobDone {
		t.Fatalf("recovered job %s (%s), want done", old.Status, old.Error)
	}
	var req SearchRequest
	if err := json.Unmarshal([]byte(request+"}"), &req); err != nil {
		t.Fatal(err)
	}
	fresh, err := jm.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	done, err := jm.Wait(ctx, fresh.ID)
	if err != nil || done.Status != JobDone {
		t.Fatalf("fresh job: %v %v", done.Status, err)
	}
	if old.Result.BestEDP != done.Result.BestEDP || old.Result.Evals != done.Result.Evals {
		t.Fatalf("recovered job best %v in %d evals, fresh job %v in %d",
			old.Result.BestEDP, old.Result.Evals, done.Result.BestEDP, done.Result.Evals)
	}
	var gone journalRecord
	if err := j.Get("old", &gone); !errors.Is(err, resilience.ErrNotJournaled) {
		t.Fatalf("recovered job's record after it ended: %v, want ErrNotJournaled", err)
	}
}

// TestRecoveredMalformedCheckpointFails guards journal recovery against a
// checkpoint whose mappings no longer fit the problem's map space (written
// before a registered workload changed): the recovered mm job fails with
// the membership error instead of panicking the worker, and the manager
// keeps serving.
func TestRecoveredMalformedCheckpointFails(t *testing.T) {
	req := mmRequest(3)
	p, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	space, err := mapspace.New(p.arch, p.prob)
	if err != nil {
		t.Fatal(err)
	}
	short := space.Random(stats.NewRNG(1))
	for l := range short.Tile {
		short.Tile[l] = short.Tile[l][:len(short.Tile[l])-1]
	}
	state, err := json.Marshal(map[string]any{"iter": 2, "temp": 1.0, "injections": 0, "chains": []mapspace.Mapping{short}})
	if err != nil {
		t.Fatal(err)
	}
	j, err := resilience.OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ck := &search.Checkpoint{Method: search.MindMappings{}.Name(), Eval: 10, RNGDraws: 4, State: state}
	if err := j.Put("stale", journalRecord{ID: "stale", Status: JobRunning, Request: req, Created: time.Now(), Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	jm := newTestManager(t, 1, 4)
	if n, err := jm.EnableJournal(j); err != nil || n != 1 {
		t.Fatalf("EnableJournal = %d, %v; want 1 recovered", n, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done, err := jm.Wait(ctx, "stale")
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != JobFailed || !strings.Contains(done.Error, "checkpoint chain 0: mapspace: level") {
		t.Fatalf("recovered job %s %q, want failed with the membership error", done.Status, done.Error)
	}
	fresh, err := jm.Submit(mmRequest(4))
	if err != nil {
		t.Fatal(err)
	}
	if done, err := jm.Wait(ctx, fresh.ID); err != nil || done.Status != JobDone {
		t.Fatalf("fresh job after the failed recovery: %s %q, %v", done.Status, done.Error, err)
	}
}

// TestDeadlineReturnsDegradedValidResult pins the anytime contract over
// HTTP: a job whose timeout_ms expires long before its budget completes
// as done with a valid best-so-far mapping marked degraded — never a
// failure, never an invalid mapping.
func TestDeadlineReturnsDegradedValidResult(t *testing.T) {
	ts, _ := testServer(t, 1, 4)
	job, resp := postSearch(t, ts, SearchRequest{
		Algo: "conv1d", Shape: []int{1024, 5},
		Searcher: "random", Time: "1h", TimeoutMS: 300, Seed: 5,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	done := waitJob(t, ts, job.ID, 30*time.Second)
	if done.Status != JobDone {
		t.Fatalf("deadline-bounded job finished %s: %s", done.Status, done.Error)
	}
	if done.Result == nil || !done.Result.Degraded {
		t.Fatalf("result not marked degraded: %+v", done.Result)
	}
	if done.Result.Mapping == "" || done.Result.BestEDP <= 0 || done.Result.Evals <= 0 {
		t.Fatalf("degraded result is not a valid mapping: %+v", done.Result)
	}
	if n := promValue(t, ts, "search_jobs_degraded_total"); n != 1 {
		t.Fatalf("degraded counter %v, want 1", n)
	}
}

// TestMaxIntEvalsRunsToItsDeadline pins the top of the eval range: an
// evals of MaxInt64 resolves to a budget (an overflowing budget derivation
// once made the accepted job fail "negative budget"), and the job runs
// until its deadline and completes degraded.
func TestMaxIntEvalsRunsToItsDeadline(t *testing.T) {
	req := SearchRequest{Algo: "conv1d", Shape: []int{1024, 5},
		Searcher: "random", Evals: math.MaxInt64, TimeoutMS: 200, Seed: 5}
	if b, err := req.budget(); err != nil || b.MaxEvals != math.MaxInt64 {
		t.Fatalf("budget %+v, %v; want MaxEvals %d", b, err, math.MaxInt64)
	}
	ts, _ := testServer(t, 1, 4)
	job, resp := postSearch(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	done := waitJob(t, ts, job.ID, 30*time.Second)
	if done.Status != JobDone || done.Result == nil || !done.Result.Degraded {
		t.Fatalf("MaxInt64-eval job finished %s (%q), result %+v; want done and degraded", done.Status, done.Error, done.Result)
	}
}

// TestTimeoutBeyondDurationRangeRejected pins the timeout_ms bound: a
// deadline past a time.Duration's range is a 400 (it once wrapped, and
// 18446744073710 ms, about 584 years, ran under a deadline below 1 ms),
// while the largest one that fits is accepted and never cuts the job.
func TestTimeoutBeyondDurationRangeRejected(t *testing.T) {
	ts, _ := testServer(t, 1, 4)
	req := SearchRequest{Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "random", Evals: 2000, Seed: 5}
	for _, ms := range []int{18446744073710, int(maxTimeoutMS) + 1} {
		req.TimeoutMS = ms
		if _, resp := postSearch(t, ts, req); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("timeout_ms %d: %d, want 400", ms, resp.StatusCode)
		}
	}
	req.TimeoutMS = int(maxTimeoutMS)
	job, resp := postSearch(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("timeout_ms %d: %d, want 202", req.TimeoutMS, resp.StatusCode)
	}
	done := waitJob(t, ts, job.ID, 30*time.Second)
	if done.Status != JobDone || done.Result == nil || done.Result.Degraded || done.Result.Evals != req.Evals {
		t.Fatalf("timeout_ms %d job finished %s (%q), result %+v; want done with every eval", req.TimeoutMS, done.Status, done.Error, done.Result)
	}
}

// TestReadyzFlipsWhenDraining pins the readiness satellite: /readyz is 200
// while serving, 503 the moment a drain begins (while /healthz stays 200),
// and new submissions are refused during the drain.
func TestReadyzFlipsWhenDraining(t *testing.T) {
	ts, jm := testServer(t, 1, 4)
	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", got)
	}
	jm.BeginDrain()
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: %d", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz during drain: %d (liveness must not flip)", got)
	}
	_, resp := postSearch(t, ts, SearchRequest{
		Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "random", Evals: 5,
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %d, want 503", resp.StatusCode)
	}
}

// TestCancelQueuedFreesQueueAndQuotaSlot pins the cancellation satellite:
// deleting a queued job frees its queue slot and its admission slot
// immediately — the very next submit succeeds without waiting for a
// worker.
func TestCancelQueuedFreesQueueAndQuotaSlot(t *testing.T) {
	jm := newTestManager(t, 1, 1)
	jm.EnableAdmission(resilience.AdmissionConfig{MaxConcurrent: 2})
	long := SearchRequest{Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "random", Time: "1h"}

	a, err := jm.SubmitAs("acme", long)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, jm, a.ID, JobRunning)
	b, err := jm.SubmitAs("acme", long)
	if err != nil {
		t.Fatal(err)
	}
	// Saturated: both quota slots held, the single queue slot occupied.
	if _, err := jm.SubmitAs("acme", long); err == nil {
		t.Fatal("third submit accepted past quota and queue capacity")
	}
	snap, ok := jm.Cancel(b.ID)
	if !ok || snap.Status != JobCancelled {
		t.Fatalf("cancel queued: ok=%v status=%s", ok, snap.Status)
	}
	if got := jm.met.inFlight.Value(); got != 1 {
		t.Fatalf("quota slot not freed on cancel-queued: %v in flight, want 1", got)
	}
	c, err := jm.SubmitAs("acme", long)
	if err != nil {
		t.Fatalf("submit after cancel-queued rejected: %v", err)
	}
	jm.Cancel(a.ID)
	jm.Cancel(c.ID)
}

// TestQuotaAccountingUnderConcurrentSubmitCancel hammers admission slots
// from many goroutines mixing submits and immediate cancels; afterwards no
// slot may be leaked. Run with -race.
func TestQuotaAccountingUnderConcurrentSubmitCancel(t *testing.T) {
	jm := newTestManager(t, 4, 64)
	jm.EnableAdmission(resilience.AdmissionConfig{MaxConcurrent: 8})
	req := SearchRequest{Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "random", Evals: 30}

	var mu sync.Mutex
	var ids []string
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				job, err := jm.SubmitAs("acme", req)
				if err != nil {
					var admErr *AdmissionError
					if !errors.As(err, &admErr) && !errors.Is(err, ErrQueueFull) {
						t.Errorf("worker %d: %v", w, err)
					}
					continue
				}
				if (w+i)%3 == 0 {
					jm.Cancel(job.ID)
				}
				mu.Lock()
				ids = append(ids, job.ID)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, id := range ids {
		if _, err := jm.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if got := jm.met.inFlight.Value(); got != 0 {
		t.Fatalf("admission_in_flight reads %v slots, want 0", got)
	}
}

// TestResumeCancelledJobOverHTTP pins POST /v1/jobs/{id}/resume: a
// cancelled mid-flight job reports itself resumable, resumes under its
// original ID, and runs to completion; a done job refuses with 409.
func TestResumeCancelledJobOverHTTP(t *testing.T) {
	ts, jm := testServer(t, 1, 4)
	jm.SetCheckpointInterval(200)
	job, resp := postSearch(t, ts, SearchRequest{
		Algo: "conv1d", Shape: []int{1024, 5},
		Searcher: "mm", Model: "conv1d.surrogate",
		Evals: 20000, Seed: 4,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		snap := getJob(t, ts, job.ID)
		if snap.CheckpointEval > 0 {
			break
		}
		if snap.Status.Terminal() || time.Now().After(deadline) {
			t.Fatalf("no checkpoint (status %s)", snap.Status)
		}
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %v %d", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	cancelled := waitJob(t, ts, job.ID, 30*time.Second)
	if cancelled.Status != JobCancelled || !cancelled.Resumable {
		t.Fatalf("cancelled mid-flight job not resumable: status %s resumable %v",
			cancelled.Status, cancelled.Resumable)
	}

	rr, err := http.Post(ts.URL+"/v1/jobs/"+job.ID+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusAccepted {
		t.Fatalf("resume: %d", rr.StatusCode)
	}
	done := waitJob(t, ts, job.ID, 2*time.Minute)
	if done.Status != JobDone || done.Result == nil || done.Result.Evals != 20000 {
		t.Fatalf("resumed job: status %s result %+v", done.Status, done.Result)
	}
	// Done jobs are complete: resuming again must refuse.
	rr2, err := http.Post(ts.URL+"/v1/jobs/"+job.ID+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	rr2.Body.Close()
	if rr2.StatusCode != http.StatusConflict {
		t.Fatalf("resume of a done job: %d, want 409", rr2.StatusCode)
	}
}

// TestAdmissionQuotaOverHTTP pins the transport mapping: a tenant over its
// concurrency cap gets 429 with a Retry-After header; a different tenant
// is unaffected; releasing capacity re-admits.
func TestAdmissionQuotaOverHTTP(t *testing.T) {
	ts, jm := testServer(t, 1, 8)
	jm.EnableAdmission(resilience.AdmissionConfig{MaxConcurrent: 1})
	long := SearchRequest{Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "random", Time: "1h"}
	submitAs := func(tenant string) (Job, *http.Response) {
		t.Helper()
		body, _ := json.Marshal(long)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/search", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var job Job
		if resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
				t.Fatal(err)
			}
		}
		return job, resp
	}

	a, resp := submitAs("acme")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	_, resp = submitAs("acme")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carried no Retry-After")
	}
	b, resp := submitAs("rival")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant blocked by acme's quota: %d", resp.StatusCode)
	}
	jm.Cancel(a.ID)
	waitJob(t, ts, a.ID, 30*time.Second)
	c, resp := submitAs("acme")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after slot release: %d", resp.StatusCode)
	}
	jm.Cancel(b.ID)
	jm.Cancel(c.ID)
	if n := promValue(t, ts, "admission_rejected_total"); n != 1 {
		t.Fatalf("admission_rejected_total = %v, want 1", n)
	}
	if n := promValue(t, ts, `tenant_rejected_total{tenant="acme",code="429"}`); n != 1 {
		t.Fatalf("acme's 429 series = %v, want 1", n)
	}
}
