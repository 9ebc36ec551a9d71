package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mindmappings/internal/obs"
	"mindmappings/internal/service"
)

// clients is the number of closed-loop clients, each with one connection.
const clients = 2

// jobView is the part of a job snapshot the benchmark reads; decoding only
// these fields keeps the client's own heap out of the service's numbers.
type jobView struct {
	ID       string            `json:"id"`
	Status   service.JobStatus `json:"status"`
	Error    string            `json:"error"`
	Created  time.Time         `json:"created"`
	Started  time.Time         `json:"started"`
	Finished time.Time         `json:"finished"`
	Result   *struct {
		BestEDP  float64 `json:"best_edp"`
		Evals    int     `json:"evals"`
		Degraded bool    `json:"degraded"`
		Source   string  `json:"source"`
	} `json:"result"`
}

// outcome is what a client saw for one request.
type outcome struct {
	req  *request
	sent time.Time // just before the POST was written
	code int       // status of the POST
	job  jobView   // terminal snapshot
	// frames counts terminal-status frames on the job's event stream; a
	// job answered terminal at submit has no stream and frames stays 0.
	frames   int
	streamed bool
	err      error
	// phases are the top-level children of the job's span tree (traced
	// runs only): resolve-model and search.
	phases []phase
}

// phase is one top-level span of a job trace, in milliseconds from the
// job's creation.
type phase struct {
	name              string
	startMS, lengthMS float64
}

// latency is the job's server-side finish time minus the client's send
// instant; server and client share one process, so one clock.
func (o *outcome) latency() time.Duration { return o.job.Finished.Sub(o.sent) }

// failure reports why the request did not end in exactly one done state.
func (o *outcome) failure() error {
	switch {
	case o.err != nil:
		return o.err
	case o.code != http.StatusAccepted:
		return fmt.Errorf("POST /v1/search answered %d", o.code)
	case o.job.Status != service.JobDone:
		return fmt.Errorf("job %s ended %s: %s", o.job.ID, o.job.Status, o.job.Error)
	case o.streamed && o.frames != 1:
		return fmt.Errorf("job %s sent %d terminal frames, want 1", o.job.ID, o.frames)
	case o.job.Result == nil:
		return fmt.Errorf("job %s is done without a result", o.job.ID)
	case o.job.Result.Degraded:
		return fmt.Errorf("job %s is degraded", o.job.ID)
	}
	return nil
}

// check verifies a done job's answer: a finite EDP no better than the
// oracle's algorithmic minimum, and the full budget spent by a fixed-eval
// search.
func (o *outcome) check() error {
	if err := o.failure(); err != nil {
		return err
	}
	r, b := o.job.Result, &o.req.Body
	if math.IsNaN(r.BestEDP) || math.IsInf(r.BestEDP, 0) || r.BestEDP < 1 {
		return fmt.Errorf("job %s best_edp %v, want finite and >= 1", o.job.ID, r.BestEDP)
	}
	if b.Time == "" && r.Source != "atlas" && r.Evals != b.Evals {
		return fmt.Errorf("job %s ran %d evals, requested %d", o.job.ID, r.Evals, b.Evals)
	}
	return nil
}

// drive replays reqs from two closed-loop clients. Each client takes the
// next burst of requests, submits them back to back, then waits for each
// to finish before taking more. It returns the outcomes in request order
// and the wall time from the first send to the last finish.
func drive(ctx context.Context, in *instance, reqs []request, burst int, traced bool) ([]outcome, time.Duration) {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(clients)
	for range clients {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(burst))) - burst
				if lo >= len(reqs) {
					return
				}
				hi := min(lo+burst, len(reqs))
				for i := lo; i < hi; i++ {
					outs[i] = in.submit(ctx, &reqs[i])
				}
				for i := lo; i < hi; i++ {
					in.await(ctx, &outs[i], traced)
				}
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// submit POSTs one search.
func (in *instance) submit(ctx context.Context, r *request) outcome {
	o := outcome{req: r}
	body, err := json.Marshal(&r.Body)
	if err != nil {
		o.err = err
		return o
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, in.base+"/v1/search", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	hr.Header.Set("Content-Type", "application/json")
	if r.Tenant != "" {
		hr.Header.Set("X-Tenant", r.Tenant)
	}
	o.sent = time.Now()
	resp, err := in.client.Do(hr)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	o.code = resp.StatusCode
	if o.err = json.NewDecoder(resp.Body).Decode(&o.job); o.err == nil {
		_, o.err = io.Copy(io.Discard, resp.Body)
	}
	return o
}

// await waits for a queued job's terminal frame on its event stream, then
// reads its final snapshot (and, traced, its span tree). Jobs answered
// terminal at submit need nothing more.
func (in *instance) await(ctx context.Context, o *outcome, traced bool) {
	if o.err != nil || o.code != http.StatusAccepted {
		return
	}
	if !o.job.Status.Terminal() {
		path := "/v1/jobs/" + o.job.ID
		o.streamed = true
		if o.frames, o.err = in.events(ctx, path+"/events"); o.err != nil {
			return
		}
		if o.err = in.getJSON(ctx, path, &o.job); o.err != nil {
			return
		}
		if traced {
			var body struct {
				Trace obs.SpanSnapshot `json:"trace"`
			}
			if o.err = in.getJSON(ctx, path+"/trace", &body); o.err == nil {
				for _, c := range body.Trace.Children {
					o.phases = append(o.phases, phase{c.Name, c.StartMS, c.DurationMS})
				}
			}
		}
	}
}

// events reads a Server-Sent Events stream to its end and counts the
// frames carrying a terminal status. The server closes the stream after
// the terminal frame, so reading to EOF keeps the connection reusable.
func (in *instance) events(ctx context.Context, path string) (int, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, in.base+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := in.client.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s answered %d", path, resp.StatusCode)
	}
	terminal := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		// Search and training streams share the terminal status names.
		var ev struct {
			Status service.JobStatus `json:"status"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return terminal, fmt.Errorf("GET %s: bad frame: %w", path, err)
		}
		if ev.Status.Terminal() {
			terminal++
		}
	}
	if err := sc.Err(); err != nil {
		return terminal, fmt.Errorf("GET %s: %w", path, err)
	}
	if terminal == 0 {
		return 0, fmt.Errorf("GET %s: stream ended without a terminal frame", path)
	}
	return terminal, nil
}

func (in *instance) getJSON(ctx context.Context, path string, v any) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, in.base+path, nil)
	if err != nil {
		return err
	}
	return in.do(hr, path, http.StatusOK, v)
}

func (in *instance) postJSON(ctx context.Context, path, tenant string, body any, want int, v any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, in.base+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hr.Header.Set("X-Tenant", tenant)
	}
	return in.do(hr, path, want, v)
}

func (in *instance) do(hr *http.Request, path string, want int, v any) error {
	resp, err := in.client.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", hr.Method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s answered %d: %s", hr.Method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if v == nil {
		return nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s %s: %w", hr.Method, path, err)
	}
	return nil
}
