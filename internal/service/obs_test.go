package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"mindmappings/internal/obs"
)

// sseEvents reads a Server-Sent-Events body until EOF or maxWait, decoding
// every "data:" frame as a ProgressEvent.
func sseEvents(t *testing.T, body *bufio.Scanner) []ProgressEvent {
	t.Helper()
	var events []ProgressEvent
	for body.Scan() {
		line := body.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev ProgressEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		events = append(events, ev)
	}
	return events
}

// TestPrometheusExposition pins the scrape surface: after real traffic,
// GET /metrics serves valid exposition text carrying the job, cache,
// cost-model, HTTP, and runtime families.
func TestPrometheusExposition(t *testing.T) {
	ts, _, _ := testServer(t, 2, 8)
	job, resp := postSearch(t, ts, SearchRequest{
		Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "random", Evals: 200, Seed: 1,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitJob(t, ts, job.ID, time.Minute)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); ct != obs.ExpositionContentType {
		t.Fatalf("content type %q", ct)
	}
	rawBody, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(rawBody)
	series, err := obs.ValidateExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("malformed exposition: %v\n%s", err, out)
	}
	if series == 0 {
		t.Fatal("empty exposition")
	}
	for _, want := range []string{
		"search_jobs_submitted_total 1",
		"search_jobs_done_total 1",
		"search_job_queue_seconds_count 1",
		"search_job_run_seconds_count 1",
		`costmodel_evals_total{backend="timeloop"} 200`,
		`costmodel_eval_seconds_count{backend="timeloop"}`,
		`http_requests_total{route="POST /v1/search",code="2xx"} 1`,
		`http_request_seconds_count`,
		"eval_cache_hits_total",
		"model_registry_loaded",
		"go_goroutines",
		"process_uptime_seconds",
		"build_info{",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("exposition was:\n%s", out)
	}

	// The runtime series carry live values.
	for _, series := range []string{"go_goroutines", "go_heap_alloc_bytes", "process_uptime_seconds", "search_job_run_seconds_sum"} {
		if v := promValue(t, ts, series); v <= 0 {
			t.Errorf("%s = %v, want > 0", series, v)
		}
	}
}

// TestJobEventsSSE pins the live-trajectory contract: the SSE stream
// replays history then live samples, best-so-far never rises, eval indices
// never fall, and the final frame carries the terminal status.
func TestJobEventsSSE(t *testing.T) {
	ts, _, _ := testServer(t, 1, 8)
	job, resp := postSearch(t, ts, SearchRequest{
		Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "ga", Evals: 2000, Seed: 7,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("GET events: %d", sresp.StatusCode)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := sseEvents(t, bufio.NewScanner(sresp.Body))
	if len(events) < 2 {
		t.Fatalf("only %d events", len(events))
	}
	last := events[len(events)-1]
	if last.Status != JobDone {
		t.Fatalf("final event: %+v", last)
	}
	if last.Eval != 2000 || last.BestEDP <= 0 {
		t.Fatalf("final event incomplete: %+v", last)
	}
	best := 0.0
	eval := 0
	for i, ev := range events {
		if ev.Eval < eval {
			t.Fatalf("event %d: eval fell from %d to %d", i, eval, ev.Eval)
		}
		eval = ev.Eval
		if ev.BestEDP == 0 {
			continue // the initial queued/running frame has no sample yet
		}
		if best != 0 && ev.BestEDP > best {
			t.Fatalf("event %d: best rose from %v to %v", i, best, ev.BestEDP)
		}
		best = ev.BestEDP
	}
	// A late subscriber to the finished job still gets the retained tail
	// and an immediate close.
	lresp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	late := sseEvents(t, bufio.NewScanner(lresp.Body))
	if len(late) == 0 || late[len(late)-1].Status != JobDone {
		t.Fatalf("late subscriber got %d events", len(late))
	}
}

// TestSSEDisconnectDoesNotLeak pins that a client dropping mid-stream
// releases the handler goroutine and its stream subscription (run under
// -race in CI).
func TestSSEDisconnectDoesNotLeak(t *testing.T) {
	ts, _, _ := testServer(t, 1, 8)
	job, resp := postSearch(t, ts, SearchRequest{
		Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "random", Time: "30s", Seed: 3,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	baseline := runtime.NumGoroutine()

	ctx, cancelReq := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+job.ID+"/events", nil)
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one frame to prove the stream is live, then drop the client.
	br := bufio.NewReader(sresp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancelReq()
	sresp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d never returned to baseline %d after disconnect", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Tear the long job down promptly.
	dreq, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+job.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
}

// TestJobTraceEndpoint pins span nesting under concurrent jobs: every
// job's trace has its own root with queue-wait, resolve-model, search,
// and bounded stride children carrying monotone eval attributes.
func TestJobTraceEndpoint(t *testing.T) {
	ts, _, _ := testServer(t, 4, 16)
	const n = 4
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		job, resp := postSearch(t, ts, SearchRequest{
			Algo: "conv1d", Shape: []int{1024, 5}, Searcher: "sa", Evals: 500, Seed: int64(i),
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		ids[i] = job.ID
	}
	for _, id := range ids {
		waitJob(t, ts, id, time.Minute)
	}
	for _, id := range ids {
		tresp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			ID     string           `json:"id"`
			Trace  obs.SpanSnapshot `json:"trace"`
			Events []ProgressEvent  `json:"events"`
		}
		err = json.NewDecoder(tresp.Body).Decode(&body)
		tresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		root := body.Trace
		if root.Name != "search-job" || root.Running {
			t.Fatalf("root: %+v", root)
		}
		if root.Attrs["status"] != string(JobDone) {
			t.Fatalf("root attrs: %v", root.Attrs)
		}
		if _, ok := root.Attrs["queue_wait_ms"]; !ok {
			t.Fatalf("missing queue_wait_ms: %v", root.Attrs)
		}
		names := map[string]obs.SpanSnapshot{}
		for _, c := range root.Children {
			names[c.Name] = c
		}
		for _, want := range []string{"resolve-model", "search"} {
			c, ok := names[want]
			if !ok {
				t.Fatalf("job %s trace missing %q span: %+v", id, want, root.Children)
			}
			if c.Running || c.DurationMS < 0 || c.StartMS < 0 {
				t.Fatalf("span %q: %+v", want, c)
			}
		}
		search := names["search"]
		if len(search.Children) == 0 {
			t.Fatalf("search span has no stride children")
		}
		if len(search.Children) > obs.MaxChildren {
			t.Fatalf("stride children unbounded: %d", len(search.Children))
		}
		lastEval := -1
		for _, stride := range search.Children {
			if stride.Name != "stride" {
				t.Fatalf("unexpected child %q", stride.Name)
			}
			ev, ok := stride.Attrs["eval"].(float64) // JSON numbers decode as float64
			if !ok || int(ev) <= lastEval {
				t.Fatalf("stride evals not increasing: %v after %d", stride.Attrs["eval"], lastEval)
			}
			lastEval = int(ev)
		}
		if len(body.Events) == 0 || body.Events[len(body.Events)-1].Status != JobDone {
			t.Fatalf("trace events incomplete: %d events", len(body.Events))
		}
	}
}

// TestUnknownJobObsEndpoints pins 404s for unknown ids.
func TestUnknownJobObsEndpoints(t *testing.T) {
	ts, _, _ := testServer(t, 1, 4)
	for _, path := range []string{"/v1/jobs/nope/trace", "/v1/jobs/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
	}
}
