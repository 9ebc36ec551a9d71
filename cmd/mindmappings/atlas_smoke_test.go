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
	"mindmappings/internal/stats"
	"mindmappings/internal/surrogate"
)

// TestServeAtlasSmoke is the CI smoke for the mapping atlas, end to end
// across a process boundary: `atlas build` sweeps a 4-point shape grid
// offline, a fresh serve then opens the same directory, answers the exact
// grid shape from the atlas without running a search, and warm-starts an
// mm search for an unseen nearby shape — both observed through the
// /metrics counters, not just the response bodies.
func TestServeAtlasSmoke(t *testing.T) {
	dir := t.TempDir()
	atlasDir := filepath.Join(dir, "atlas")

	// Offline sweep: 4 conv1d grid points, black-box searcher so no
	// surrogate is needed.
	if err := cmdAtlas([]string{
		"build",
		"-algo", "conv1d",
		"-grid", "X=256|512|1024|1536,R=5",
		"-atlas", atlasDir,
		"-searcher", "ga",
		"-evals", "80",
	}); err != nil {
		t.Fatal(err)
	}

	// The warm-start path needs an mm job, which needs a surrogate in the
	// registry; an untrained one exercises the same serving path.
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
	net1, err := nn.NewMLP([]int{inDim, 16, 16, outDim}, nn.ReLU{}, stats.NewRNG(3))
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
	if err := os.WriteFile(filepath.Join(dir, "conv1d.surrogate"), blob.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	done := make(chan error, 1)
	go func() {
		done <- cmdServe([]string{
			"-addr", addr, "-models", dir, "-atlas", atlasDir,
			"-workers", "2", "-trainworkers", "1", "-quiet",
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

	submit := func(body string) (status string, source string, id string) {
		t.Helper()
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
			t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
		}
		var job struct {
			ID     string `json:"id"`
			Status string `json:"status"`
			Result *struct {
				Source string `json:"source"`
			} `json:"result"`
		}
		if err := json.Unmarshal(raw, &job); err != nil {
			t.Fatalf("%v in %q", err, raw)
		}
		if job.Result != nil {
			source = job.Result.Source
		}
		return job.Status, source, job.ID
	}
	await := func(id string) {
		t.Helper()
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
				return
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

	// Exact grid shape: answered from the atlas, already terminal at submit.
	status, source, _ := submit(`{"algo":"conv1d","shape":[1024,5],"searcher":"ga","evals":80,"seed":1}`)
	if status != "done" || source != "atlas" {
		t.Fatalf("repeat shape not served from atlas: status=%q source=%q", status, source)
	}
	// Unseen nearby shape, mm searcher: runs a real (warm-started) search.
	_, _, id := submit(fmt.Sprintf(`{"algo":"conv1d","shape":[768,5],"searcher":"mm",
		"model":"conv1d.surrogate","evals":%d,"seed":2}`, 60))
	await(id)

	// Both events must be visible to Prometheus.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// atlas_entries is 5: the 4 built grid points plus the warm-started
	// job's own write-back. The exact hit is a request served without a
	// search; the neighbor run is the only cold-path job.
	for _, want := range []string{
		"atlas_hits_total 1", "atlas_neighbor_total 1", "atlas_cold_total 0",
		"atlas_writebacks_total 1", "atlas_entries 5", "atlas_corrupt_manifests 0",
		"atlas_lookup_seconds_count 2", `tenant_atlas_hits_total{tenant="anon"} 1`,
	} {
		if !strings.Contains(string(text), want+"\n") {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
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
