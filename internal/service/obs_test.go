package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
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

// flushCounter wraps a streaming ResponseWriter and counts its Flushes.
type flushCounter struct {
	http.ResponseWriter
	flushes atomic.Int64
}

func (f *flushCounter) Flush() {
	f.flushes.Add(1)
	f.ResponseWriter.(http.Flusher).Flush()
}

// sseServer serves one serveSSE stream of a subscription over a real
// connection, counting the handler's Flush calls.
func sseServer(t *testing.T, hist []ProgressEvent, ch <-chan ProgressEvent, cancel func(), final ProgressEvent) (*httptest.Server, *flushCounter) {
	t.Helper()
	fc := &flushCounter{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fc.ResponseWriter = w
		serveSSE(fc, r, hist, ch, cancel, func() (ProgressEvent, bool) { return final, true })
	}))
	t.Cleanup(ts.Close)
	return ts, fc
}

// sseFrame is the exact wire form of one event.
func sseFrame(t *testing.T, ev ProgressEvent) string {
	t.Helper()
	raw, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	return "data: " + string(raw) + "\n\n"
}

func runningEvent(i int) ProgressEvent {
	return ProgressEvent{Status: JobRunning, Eval: i, BestEDP: 1 / float64(i), ElapsedMS: float64(i)}
}

// TestSSECoalescesBurst pins the coalesced stream: a burst published
// before the handler drains it reaches the client byte for byte in
// publish order, the terminal frame appears exactly once, and the handler
// flushes once per wake-up rather than once per frame.
func TestSSECoalescesBurst(t *testing.T) {
	const n = 100
	stream := obs.NewStream[ProgressEvent](maxTrajectorySamples)
	hist, ch, cancel := stream.Subscribe(n + 1)
	var want strings.Builder
	for i := 1; i <= n; i++ {
		ev := runningEvent(i)
		stream.Publish(ev)
		want.WriteString(sseFrame(t, ev))
	}
	terminal := ProgressEvent{Status: JobDone, Eval: n, BestEDP: 1.0 / n, ElapsedMS: n}
	want.WriteString(sseFrame(t, terminal))

	ts, fc := sseServer(t, hist, ch, cancel, terminal)
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read the whole burst while the stream is still open, then end it.
	br := bufio.NewReader(resp.Body)
	var got strings.Builder
	for frames := 0; frames < n; {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("after %d frames: %v", frames, err)
		}
		got.WriteString(line)
		if strings.HasPrefix(line, "data: ") {
			frames++
		}
	}
	stream.Publish(terminal)
	stream.Close()
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	got.Write(rest)
	if got.String() != want.String() {
		t.Fatalf("stream body differs from the published frames:\ngot  %q\nwant %q", got.String(), want.String())
	}
	if f := fc.flushes.Load(); f >= n+1 {
		t.Fatalf("%d flushes for %d frames: the burst was not coalesced", f, n+1)
	}
}

// TestSSEClosedMidBurstSendsOneTerminal pins the final-frame guarantee
// under coalescing: whether the stream closes with its terminal event
// dropped, delivered in the burst, or while a concurrent burst is still
// being drained, the client sees exactly one terminal frame, and it is
// the last.
func TestSSEClosedMidBurstSendsOneTerminal(t *testing.T) {
	const n = 500
	terminal := ProgressEvent{Status: JobDone, Eval: n, BestEDP: 1.0 / n, ElapsedMS: n}
	for _, tc := range []struct {
		name string
		// publish runs the producer; a live one runs concurrently with
		// the handler, the others finish before it starts.
		publish func(s *obs.Stream[ProgressEvent])
		live    bool
	}{
		{name: "terminal dropped", publish: func(s *obs.Stream[ProgressEvent]) {
			for i := 1; i <= n; i++ {
				s.Publish(runningEvent(i)) // past the subscriber buffer: dropped
			}
			s.Publish(terminal)
			s.Close()
		}},
		{name: "terminal delivered", publish: func(s *obs.Stream[ProgressEvent]) {
			for i := 1; i <= 3; i++ {
				s.Publish(runningEvent(i))
			}
			s.Publish(terminal)
			s.Close()
		}},
		{name: "concurrent", live: true, publish: func(s *obs.Stream[ProgressEvent]) {
			for i := 1; i <= n; i++ {
				s.Publish(runningEvent(i))
			}
			s.Publish(terminal)
			s.Close()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := obs.NewStream[ProgressEvent](maxTrajectorySamples)
			hist, ch, cancel := stream.Subscribe(16) // Watch's buffer
			if tc.live {
				go tc.publish(stream)
			} else {
				tc.publish(stream)
			}
			ts, _ := sseServer(t, hist, ch, cancel, terminal)
			resp, err := http.Get(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			events := sseEvents(t, bufio.NewScanner(resp.Body))
			if len(events) == 0 {
				t.Fatal("empty stream")
			}
			terminals, eval := 0, 0
			for i, ev := range events {
				if ev.Status.Terminal() {
					terminals++
				}
				if ev.Eval < eval || (ev.Eval == eval && !ev.Status.Terminal()) {
					t.Fatalf("frame %d: eval %d after %d", i, ev.Eval, eval)
				}
				eval = ev.Eval
			}
			if terminals != 1 || events[len(events)-1] != terminal {
				t.Fatalf("%d terminal frames in %d, last %+v", terminals, len(events), events[len(events)-1])
			}
		})
	}
}

// TestJobTraceEndpoint pins span nesting under concurrent jobs: every
// job's trace has its own root with queue-wait, resolve-model and search.
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
