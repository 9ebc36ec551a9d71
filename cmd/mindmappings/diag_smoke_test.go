package main

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestServeDiagSmoke is the CI smoke for the operational-intelligence
// surface: it boots the real serve command with -slo armed, drives
// tenant-tagged traffic through it, requires the per-tenant RED series and
// the SLO burn-rate gauges on /metrics and a healthy /v1/status, then runs
// `mindmappings diag` against the live server and asserts the bundle is a
// well-formed tar.gz holding the manifest, the /metrics scrape, the flight
// recorder, and per-job traces.
func TestServeDiagSmoke(t *testing.T) {
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
			"-workers", "2", "-trainworkers", "1", "-quiet",
			"-slo", "-min-health", "0.5",
			// -atlas none: identical submissions must each run a real search
			// here, so every job contributes convergence telemetry.
			"-atlas", "none",
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

	// Tenant-tagged traffic: three quick random searches for tenant "acme".
	const jobs = 3
	ids := make([]string, jobs)
	for i := range ids {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/search",
			strings.NewReader(`{"algo":"conv1d","shape":[1024,5],"searcher":"random","evals":40}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", "acme")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
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

	// /v1/status reports healthy with the SLO report attached.
	sresp, err := http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Status string  `json:"status"`
		Health float64 `json:"health"`
		SLO    *struct {
			Objectives []struct {
				Name string `json:"name"`
			} `json:"objectives"`
		} `json:"slo"`
		FlightRecorderEvents uint64 `json:"flight_recorder_events"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if status.Status != "ok" || status.Health != 1 {
		t.Fatalf("status = %q health %v, want ok/1", status.Status, status.Health)
	}
	if status.SLO == nil || len(status.SLO.Objectives) != 3 {
		t.Fatalf("status SLO report = %+v, want 3 objectives", status.SLO)
	}
	if status.FlightRecorderEvents == 0 {
		t.Fatal("flight recorder saw no events despite completed jobs")
	}

	// The scrape surface carries the tenant RED series and burn-rate gauges.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`tenant_requests_total{tenant="acme"} 3`,
		`tenant_jobs_done_total{tenant="acme"} 3`,
		`slo_health_score 1`,
		`slo_burn_rate{objective="availability",window="fast"}`,
		`search_convergence_stall_fraction_count{algo="conv1d",assist="cold"} 3`,
		`admission_retry_after_hint_seconds`,
		`obs_dropped_labels_total`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// One-command diagnostics bundle against the live server.
	bundle := filepath.Join(t.TempDir(), "diag.tar.gz")
	if err := cmdDiag([]string{"-addr", base, "-out", bundle, "-jobs", "2"}); err != nil {
		t.Fatalf("diag: %v", err)
	}
	members := readBundle(t, bundle)
	for _, want := range []string{
		"MANIFEST.json", "status.json", "metrics.prom",
		"flightrecorder.json", "jobs.json", "models.json",
	} {
		if _, ok := members[want]; !ok {
			t.Errorf("bundle missing %s (have %v)", want, memberNames(members))
		}
	}
	traces := 0
	for name := range members {
		if strings.HasPrefix(name, "traces/") {
			traces++
		}
	}
	if traces != 2 {
		t.Errorf("bundle holds %d traces, want 2 (-jobs 2)", traces)
	}
	var manifest struct {
		Tool   string            `json:"tool"`
		Files  []string          `json:"files"`
		Errors map[string]string `json:"errors"`
	}
	if err := json.Unmarshal(members["MANIFEST.json"], &manifest); err != nil {
		t.Fatalf("MANIFEST.json: %v", err)
	}
	if len(manifest.Errors) != 0 {
		t.Errorf("diag recorded endpoint failures: %v", manifest.Errors)
	}
	if len(manifest.Files) != len(members)-1 {
		t.Errorf("manifest lists %d files, bundle holds %d", len(manifest.Files), len(members)-1)
	}
	var fr struct {
		Total  uint64            `json:"total"`
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(members["flightrecorder.json"], &fr); err != nil {
		t.Fatalf("flightrecorder.json: %v", err)
	}
	if fr.Total == 0 || len(fr.Events) == 0 {
		t.Error("bundled flight recorder is empty")
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

// readBundle untars a diag bundle into member-name -> contents.
func readBundle(t *testing.T, path string) map[string][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("bundle is not gzip: %v", err)
	}
	defer gz.Close()
	tr := tar.NewReader(gz)
	members := make(map[string][]byte)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("bundle is not a tar: %v", err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatalf("reading %s: %v", hdr.Name, err)
		}
		members[hdr.Name] = data
	}
	return members
}

func memberNames(m map[string][]byte) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	return names
}
