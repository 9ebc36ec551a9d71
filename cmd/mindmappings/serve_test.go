package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/nn"
	"mindmappings/internal/obs"
	"mindmappings/internal/stats"
	"mindmappings/internal/surrogate"
)

// TestServeBinaryMetricsScrape is the CI smoke for the scrape surface: it
// boots the real serve command (worker pools, store, signal handling — the
// whole process wiring, not a bare handler), scrapes /metrics like a
// Prometheus server would, fails on any malformed exposition line, and
// then shuts the server down via SIGTERM the way an orchestrator does.
func TestServeBinaryMetricsScrape(t *testing.T) {
	// Reserve a port; the tiny close-to-listen window is an acceptable
	// race for a smoke test.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	dir := t.TempDir()
	done := make(chan error, 1)
	go func() {
		done <- cmdServe([]string{
			"-addr", addr,
			"-models", dir,
			"-workers", "1",
			"-trainworkers", "1",
			"-quiet",
			"-grace", "5s",
		})
	}()

	base := "http://" + addr
	var resp *http.Response
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err = http.Get(base + "/metrics")
		if err == nil {
			break
		}
		select {
		case serveErr := <-done:
			t.Fatalf("serve exited early: %v", serveErr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ExpositionContentType {
		t.Fatalf("content type %q", ct)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ValidateExposition(bytes.NewReader(text))
	if err != nil {
		t.Fatalf("malformed exposition: %v", err)
	}
	if samples == 0 {
		t.Fatal("empty exposition")
	}
	// /metrics is the one metrics surface: job, runtime and store-health
	// series are all on it, and the retired JSON view is gone.
	for _, want := range []string{
		"search_job_workers 1",
		"search_jobs_submitted_total 0",
		"go_goroutines ",
		"store_corrupt_manifests 0",
		"atlas_corrupt_manifests 0",
		"model_registry_evictions_total 0",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	jresp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	if jresp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/metrics: %d, want 404 (retired in favor of /metrics)", jresp.StatusCode)
	}

	// pprof is opt-in and was not requested.
	presp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode == http.StatusOK {
		t.Fatal("pprof mounted without -pprof")
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil && !strings.Contains(err.Error(), "Server closed") {
			t.Fatalf("serve shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
}

// TestServeRejectsOutOfRangeSLOFlags pins that an SLO target outside its
// range is a flag error naming the flag, not a silently dropped objective
// (-slo-availability at or above 1) or a server that sheds forever
// (-min-health above 1, a score no health reaches). So is a negative
// -maxjobtime, -checkpoint-evals or -grace, which would otherwise mean no
// ceiling, the library default, or a drain that waits for nothing.
func TestServeRejectsOutOfRangeSLOFlags(t *testing.T) {
	for _, tc := range []struct {
		flag, value string
	}{
		{"-slo-availability", "1"},
		{"-slo-availability", "1.5"},
		{"-slo-availability", "-0.1"},
		{"-slo-availability", "NaN"},
		{"-min-health", "1.5"},
		{"-min-health", "-0.5"},
		{"-min-health", "NaN"},
		{"-maxjobtime", "-1s"},
		{"-checkpoint-evals", "-1"},
		{"-grace", "-1s"},
	} {
		args := []string{"-addr", "127.0.0.1:0", "-models", t.TempDir(),
			"-workers", "1", "-trainworkers", "1", "-quiet", "-slo", tc.flag, tc.value}
		done := make(chan error, 1)
		go func() { done <- cmdServe(args) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Errorf("serve -slo %s %s: err %v, want a flag error naming %s", tc.flag, tc.value, err, tc.flag)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("serve -slo %s %s started instead of failing", tc.flag, tc.value)
		}
	}
}

// TestServePprofFlag pins that -pprof mounts the profiler endpoints.
func TestServePprofFlag(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	done := make(chan error, 1)
	go func() {
		done <- cmdServe([]string{
			"-addr", addr, "-models", t.TempDir(),
			"-workers", "1", "-trainworkers", "1", "-quiet", "-pprof",
			"-grace", "5s",
		})
	}()
	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/debug/pprof/cmdline")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /debug/pprof/cmdline: %d", resp.StatusCode)
			}
			break
		}
		select {
		case serveErr := <-done:
			t.Fatalf("serve exited early: %v", serveErr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil && !strings.Contains(err.Error(), "Server closed") {
			t.Fatalf("serve shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
}

// TestServeConcurrentMMSearch is the CI smoke for concurrent mm jobs on
// one registry surrogate: it boots the real serve command, submits mm
// search jobs at once, and asserts they all complete and that /metrics
// carries no infer_batch_ series (surrogate queries go straight to the
// model; there is no cross-request batcher).
func TestServeConcurrentMMSearch(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	// An untrained conv1d surrogate: random weights change the landscape,
	// not the serving path, and skipping training keeps the smoke fast.
	algo := loopnest.MustAlgorithm("conv1d")
	prob, err := algo.NewProblem("custom", []int{1024, 5})
	if err != nil {
		t.Fatal(err)
	}
	space, err := mapspace.New(arch.Default(len(algo.Tensors)-1), prob)
	if err != nil {
		t.Fatal(err)
	}
	inDim := space.VectorLen()
	outDim := int(arch.NumLevels)*len(algo.Tensors) + 3
	net1, err := nn.NewMLP([]int{inDim, 16, 16, outDim}, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	ident := func(d int) *stats.Normalizer {
		n := &stats.Normalizer{Mean: make([]float64, d), Std: make([]float64, d)}
		for i := range n.Std {
			n.Std[i] = 1
		}
		return n
	}
	sur := &surrogate.Surrogate{
		AlgoName:   algo.Name,
		Net:        net1,
		InNorm:     ident(inDim),
		OutNorm:    ident(outDim),
		Mode:       surrogate.OutputMetaStats,
		LogOutputs: true,
		NumTensors: len(algo.Tensors),
	}
	var blob bytes.Buffer
	if err := sur.Save(&blob); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "conv1d.surrogate"), blob.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		done <- cmdServe([]string{
			"-addr", addr, "-models", dir,
			"-workers", "4", "-trainworkers", "1", "-quiet",
			"-grace", "5s",
		})
	}()
	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			break
		}
		select {
		case serveErr := <-done:
			t.Fatalf("serve exited early: %v", serveErr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	const jobs = 4
	ids := make([]string, jobs)
	for i := range ids {
		body := fmt.Sprintf(`{"algo":"conv1d","shape":[1024,5],"searcher":"mm",
			"model":"conv1d.surrogate","evals":60,"seed":%d}`, i+1)
		resp, err := http.Post(base+"/v1/search", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, raw)
		}
		var job struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &job); err != nil {
			t.Fatalf("submit %d: %v in %q", i, err, raw)
		}
		ids[i] = job.ID
	}
	for _, id := range ids {
		for {
			resp, err := http.Get(base + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var job struct {
				Status string `json:"status"`
				Error  string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if job.Status == "done" {
				break
			}
			if job.Status == "failed" || job.Status == "cancelled" {
				t.Fatalf("job %s: %s (%s)", id, job.Status, job.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, job.Status)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(text), "infer_batch_") {
		t.Fatal("/metrics still exposes infer_batch_ series")
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil && !strings.Contains(err.Error(), "Server closed") {
			t.Fatalf("serve shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
}
