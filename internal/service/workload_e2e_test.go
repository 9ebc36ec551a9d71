package service

// End-to-end workload-layer acceptance for the service: gemm (a registered
// workload the seed service could not run) and an inline einsum spec both
// flow train → search → compare through POST /v1/search, including the
// surrogate-driven mm searcher against models trained for them.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/surrogate"
	"mindmappings/internal/workload"
)

const e2eEinsum = "O[m,n] += A[m,k] * B[k,n]"

var (
	wlOnce     sync.Once
	wlGemm     []byte
	wlEinsum   []byte
	wlFixtures error
)

// workloadSurrogates trains one tiny surrogate for gemm and one for the
// inline einsum spec (shared across tests; training dominates runtime).
func workloadSurrogates(t testing.TB) (gemm, einsum []byte) {
	t.Helper()
	wlOnce.Do(func() {
		train := func(algo *loopnest.Algorithm) ([]byte, error) {
			cfg := surrogate.TinyConfig()
			cfg.HiddenSizes = []int{24, 24}
			cfg.Samples = 900
			cfg.Problems = 4
			cfg.Train.Epochs = 6
			ds, err := surrogate.Generate(algo, arch.Default(len(algo.Tensors)-1), cfg)
			if err != nil {
				return nil, err
			}
			sur, _, err := surrogate.Train(ds, cfg)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := sur.Save(&buf); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		}
		gemmAlgo, err := loopnest.AlgorithmByName("gemm")
		if err != nil {
			wlFixtures = err
			return
		}
		if wlGemm, wlFixtures = train(gemmAlgo); wlFixtures != nil {
			return
		}
		inline, err := workload.CompileInline(e2eEinsum)
		if err != nil {
			wlFixtures = err
			return
		}
		wlEinsum, wlFixtures = train(inline)
	})
	if wlFixtures != nil {
		t.Fatal(wlFixtures)
	}
	return wlGemm, wlEinsum
}

func workloadServer(t *testing.T) *httptest.Server {
	t.Helper()
	gemmBytes, einsumBytes := workloadSurrogates(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "gemm.surrogate"), gemmBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "einsum.surrogate"), einsumBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	registry := NewModelRegistry(dir, 4)
	jobs := NewJobManager(registry, nil, 2, 16)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := jobs.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	ts := httptest.NewServer(NewServer(jobs, registry, nil).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestServiceRunsGEMMEndToEnd: mm (surrogate-guided) and GA on gemm via
// the generic dims map — the request shape no hand-coded switch supports.
func TestServiceRunsGEMMEndToEnd(t *testing.T) {
	ts := workloadServer(t)
	dims := map[string]int{"M": 64, "N": 64, "K": 64}
	for _, req := range []SearchRequest{
		{Algo: "gemm", Dims: dims, Searcher: "mm", Model: "gemm.surrogate", Evals: 80, Seed: 1},
		{Algo: "gemm", Dims: dims, Searcher: "ga", Evals: 80, Seed: 1},
	} {
		job, resp := postSearch(t, ts, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: status %d", req.Searcher, resp.StatusCode)
		}
		done := waitJob(t, ts, job.ID, 30*time.Second)
		if done.Status != JobDone || done.Result == nil {
			t.Fatalf("%s: status %s, error %q", req.Searcher, done.Status, done.Error)
		}
		if done.Result.BestEDP < 1 {
			t.Fatalf("%s: normalized EDP %v below the algorithmic minimum", req.Searcher, done.Result.BestEDP)
		}
	}
}

// TestServiceRunsInlineEinsumEndToEnd: a workload the server has never
// heard of, defined entirely in the request body, searched with both a
// surrogate trained for the same expression and a black-box baseline.
func TestServiceRunsInlineEinsumEndToEnd(t *testing.T) {
	ts := workloadServer(t)
	dims := map[string]int{"m": 32, "n": 32, "k": 32}
	for _, req := range []SearchRequest{
		{Einsum: e2eEinsum, Dims: dims, Searcher: "mm", Model: "einsum.surrogate", Evals: 80, Seed: 1},
		{Einsum: e2eEinsum, Dims: dims, Searcher: "sa", Evals: 80, Seed: 1},
	} {
		job, resp := postSearch(t, ts, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: status %d", req.Searcher, resp.StatusCode)
		}
		done := waitJob(t, ts, job.ID, 30*time.Second)
		if done.Status != JobDone || done.Result == nil {
			t.Fatalf("%s: status %s, error %q", req.Searcher, done.Status, done.Error)
		}
	}
	// A model trained for a different workload must be refused by name.
	job, resp := postSearch(t, ts, SearchRequest{
		Einsum: "O[a,b] += P[a,c] * Q[c,b]", Dims: map[string]int{"a": 16, "b": 16, "c": 16},
		Searcher: "mm", Model: "gemm.surrogate", Evals: 20,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("mismatch submit: status %d", resp.StatusCode)
	}
	done := waitJob(t, ts, job.ID, 30*time.Second)
	if done.Status != JobFailed {
		t.Fatalf("cross-workload mm job %s, want failed", done.Status)
	}
}

// TestModelsEndpointListsWorkloads: the /v1/models workload list is
// generated from the registry.
func TestModelsEndpointListsWorkloads(t *testing.T) {
	ts := workloadServer(t)
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Models    []ModelInfo     `json:"models"`
		Workloads []workload.Info `json:"workloads"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Models) != 2 {
		t.Fatalf("models = %d, want 2", len(body.Models))
	}
	names := map[string]bool{}
	for _, info := range body.Workloads {
		names[info.Name] = true
		if info.Expr == "" || len(info.ExampleDims) == 0 {
			t.Fatalf("workload %s listing incomplete: %+v", info.Name, info)
		}
	}
	for _, want := range workload.Names() {
		if !names[want] {
			t.Fatalf("workload %s missing from /v1/models", want)
		}
	}
}
