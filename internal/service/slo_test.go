package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mindmappings/internal/obs"
	"mindmappings/internal/resilience"
)

// postSearchAs is postSearch with an X-Tenant header.
func postSearchAs(t *testing.T, ts *httptest.Server, tenant string, req SearchRequest) (Job, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/search", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(hreq)
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

func getStatus(t *testing.T, ts *httptest.Server) StatusReport {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/status: %d", resp.StatusCode)
	}
	var st StatusReport
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func scrapeProm(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestSLOHealthDrivesLoadShedding pins the acceptance criterion that the
// /v1/status health score is the signal the load shedder acts on: when the
// availability objective burns its error budget at critical rate, /v1/status
// reports unhealthy, /readyz turns unready, and admission hard-sheds new
// submissions with 503 — all from the same tracker. The SLIs read the
// manager's terminal-outcome atomics, so the test drives them directly and
// advances a fake clock past the fast burn window: deterministic, no timing.
func TestSLOHealthDrivesLoadShedding(t *testing.T) {
	dir := modelDir(t, "conv1d.surrogate")
	registry := NewModelRegistry(dir, 4)
	jm := NewJobManager(registry, nil, 1, 4)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := jm.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	jm.EnableAdmission(resilience.AdmissionConfig{
		Thresholds: resilience.Thresholds{MinHealth: 0.5},
	})
	srv := NewServer(jm, registry, nil)

	var clockMu sync.Mutex
	now := time.Now()
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	tr := srv.EnableSLO(SLOConfig{Availability: 0.999})
	if tr == nil {
		t.Fatal("EnableSLO returned nil with an availability objective configured")
	}
	tr.WithClock(clock)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Healthy start: status ok, ready, submissions accepted.
	if st := getStatus(t, ts); st.Status != "ok" || st.Health != 1 {
		t.Fatalf("idle status = %q health %v, want ok/1", st.Status, st.Health)
	}
	job, resp := postSearchAs(t, ts, "acme", SearchRequest{
		Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "random", Evals: 20,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("healthy submit: %d, want 202", resp.StatusCode)
	}
	waitJob(t, ts, job.ID, 30*time.Second)

	// Seed the burn baseline, then fail 100 jobs' worth of availability and
	// jump past the fast window so both burn windows see the failures.
	tr.Evaluate()
	jm.met.failed.Add(100)
	clockMu.Lock()
	now = now.Add(6 * time.Minute)
	clockMu.Unlock()
	rep := tr.Evaluate()
	if rep.Health != 0 {
		t.Fatalf("health after sustained failures = %v, want 0 (report %+v)", rep.Health, rep)
	}

	st := getStatus(t, ts)
	if st.Status != "unhealthy" || st.Health != 0 {
		t.Fatalf("status = %q health %v, want unhealthy/0", st.Status, st.Health)
	}
	if st.SLO == nil || len(st.SLO.Objectives) != 1 || st.SLO.Objectives[0].Name != "availability" {
		t.Fatalf("status SLO report missing availability objective: %+v", st.SLO)
	}

	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, ready.Body)
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz at health 0: %d, want 503", ready.StatusCode)
	}

	_, resp = postSearchAs(t, ts, "acme", SearchRequest{
		Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "random", Evals: 5,
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit at health 0: %d, want 503 (shed)", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	// The shed decision landed in the flight recorder and the per-tenant
	// rejection series.
	snap := flightSnapshot(t, ts)
	if !hasEventKind(snap, "admission.shed") {
		t.Fatalf("flight recorder missing admission.shed event: %+v", snap.Events)
	}
	prom := scrapeProm(t, ts)
	for _, want := range []string{
		`tenant_rejected_total{tenant="acme",code="503"} 1`,
		`slo_health_score 0`,
		`slo_target{objective="availability"} 0.999`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if n := promValue(t, ts, "admission_shed_total"); n != 1 {
		t.Fatalf("admission_shed_total = %v, want 1", n)
	}
}

func flightSnapshot(t *testing.T, ts *httptest.Server) obs.FlightSnapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/flightrecorder: %d", resp.StatusCode)
	}
	var snap obs.FlightSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func hasEventKind(snap obs.FlightSnapshot, kind string) bool {
	for _, ev := range snap.Events {
		if ev.Kind == kind {
			return true
		}
	}
	return false
}

// TestTenantAccountingAndConvergence pins the per-tenant RED series and the
// search-quality telemetry end to end over HTTP: tenant-labeled counters
// and latency histograms on /metrics, convergence metrics in the job
// result, per-workload convergence histograms, and the submit/finish
// lifecycle in the flight recorder.
func TestTenantAccountingAndConvergence(t *testing.T) {
	ts, _ := testServer(t, 2, 16)

	req := SearchRequest{Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "random", Evals: 60}
	var ids []string
	for i := 0; i < 2; i++ {
		job, resp := postSearchAs(t, ts, "acme", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		ids = append(ids, job.ID)
	}
	anonJob, resp := postSearch(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("anon submit: %d", resp.StatusCode)
	}
	ids = append(ids, anonJob.ID)

	var done Job
	for _, id := range ids {
		done = waitJob(t, ts, id, 30*time.Second)
		if done.Status != JobDone {
			t.Fatalf("job %s: %s (%s)", id, done.Status, done.Error)
		}
	}

	// Convergence telemetry rides in every completed result.
	if done.Result == nil || done.Result.Convergence == nil {
		t.Fatalf("job result missing convergence metrics: %+v", done.Result)
	}
	conv := done.Result.Convergence
	if conv.FinalBest <= 0 || conv.Improvements < 1 {
		t.Fatalf("degenerate convergence metrics: %+v", conv)
	}
	if conv.EvalsToWithin10Pct < 1 || conv.EvalsToWithin10Pct > done.Result.Evals {
		t.Fatalf("evals_to_within_10pct = %d out of range (evals %d)", conv.EvalsToWithin10Pct, done.Result.Evals)
	}

	prom := scrapeProm(t, ts)
	for _, want := range []string{
		`tenant_requests_total{tenant="acme"} 2`,
		`tenant_requests_total{tenant="anon"} 1`,
		`tenant_jobs_done_total{tenant="acme"} 2`,
		`tenant_evals_total{tenant="acme"} `,
		`tenant_job_seconds_count{tenant="acme"} 2`,
		`search_convergence_stall_fraction_count{algo="conv1d",assist="cold"} 3`,
		`search_job_first_eval_seconds_count 3`,
		`obs_dropped_labels_total 0`,
		`admission_retry_after_hint_seconds`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The flight recorder saw every submission and completion.
	snap := flightSnapshot(t, ts)
	if !hasEventKind(snap, "job.submit") || !hasEventKind(snap, "job.finish") {
		t.Fatalf("flight recorder missing job lifecycle events: %+v", snap.Events)
	}
	if snap.Total < 6 { // 3 submits + 3 finishes
		t.Fatalf("flight recorder total = %d, want >= 6", snap.Total)
	}

	// Without EnableSLO the server presumes health 1 and status reports it.
	st := getStatus(t, ts)
	if st.Status != "ok" || st.Health != 1 || st.SLO != nil {
		t.Fatalf("status without SLO = %+v, want ok/1/no report", st)
	}
	if st.FlightRecorderEvents != snap.Total {
		t.Fatalf("status flight_recorder_events = %d, want %d", st.FlightRecorderEvents, snap.Total)
	}

	if hint := promValue(t, ts, "admission_retry_after_hint_seconds"); hint < 0 {
		t.Fatalf("admission_retry_after_hint_seconds = %v, want >= 0", hint)
	}
}
