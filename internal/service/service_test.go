package service

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/oracle"
	"mindmappings/internal/search"
	"mindmappings/internal/surrogate"
	"mindmappings/internal/workload"
)

// Training is the expensive part of this package's tests, so one tiny
// conv1d surrogate is trained once and shared; tests that need it on disk
// write the serialized bytes into their own temp dirs.
var (
	surOnce  sync.Once
	surBytes []byte
	surErr   error
)

func surrogateBytes(t testing.TB) []byte {
	t.Helper()
	surOnce.Do(func() {
		cfg := surrogate.TinyConfig()
		cfg.HiddenSizes = []int{32, 32}
		cfg.Samples = 2000
		cfg.Problems = 6
		cfg.Train.Epochs = 12
		ds, err := surrogate.Generate(loopnest.MustAlgorithm("conv1d"), arch.Default(2), cfg)
		if err != nil {
			surErr = err
			return
		}
		sur, _, err := surrogate.Train(ds, cfg)
		if err != nil {
			surErr = err
			return
		}
		var buf bytes.Buffer
		if err := sur.Save(&buf); err != nil {
			surErr = err
			return
		}
		surBytes = buf.Bytes()
	})
	if surErr != nil {
		t.Fatal(surErr)
	}
	return surBytes
}

// modelDir returns a temp directory holding the shared test surrogate
// under the given file names.
func modelDir(t testing.TB, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	blob := surrogateBytes(t)
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func validRequest() SearchRequest {
	return SearchRequest{
		Algo:     "conv1d",
		Shape:    []int{1024, 5},
		Searcher: "random",
		Evals:    50,
		Seed:     1,
	}
}

func TestRequestValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*SearchRequest)
		ok     bool
	}{
		{"valid", func(r *SearchRequest) {}, true},
		{"bad algo", func(r *SearchRequest) { r.Algo = "transformer" }, false},
		{"no problem or shape", func(r *SearchRequest) { r.Shape = nil }, false},
		{"both problem and shape", func(r *SearchRequest) { r.Problem = "X" }, false},
		{"no budget", func(r *SearchRequest) { r.Evals = 0 }, false},
		{"bad time", func(r *SearchRequest) { r.Time = "fortnight" }, false},
		{"time only", func(r *SearchRequest) { r.Evals = 0; r.Time = "5ms" }, true},
		{"bad objective", func(r *SearchRequest) { r.Objective = "carbon" }, false},
		{"bad searcher", func(r *SearchRequest) { r.Searcher = "gradient-boost" }, false},
		{"mm needs model", func(r *SearchRequest) { r.Searcher = "mm" }, false},
		{"negative evals", func(r *SearchRequest) { r.Evals = -3 }, false},
		{"roofline cost model", func(r *SearchRequest) { r.CostModel = "roofline" }, true},
		{"explicit timeloop cost model", func(r *SearchRequest) { r.CostModel = "timeloop" }, true},
		{"unknown cost model", func(r *SearchRequest) { r.CostModel = "abacus" }, false},
	}
	for _, tc := range cases {
		req := validRequest()
		tc.mutate(&req)
		err := req.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
}

func TestResolveProblemTable1AndShapes(t *testing.T) {
	resolve := func(req SearchRequest) (loopnest.Problem, error) {
		algo, err := workload.Resolve(req.Algo, req.Einsum)
		if err != nil {
			return loopnest.Problem{}, err
		}
		return req.resolveProblem(algo)
	}
	req := SearchRequest{Algo: "cnn-layer", Problem: "ResNet_Conv_4"}
	p, err := resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "ResNet_Conv_4" {
		t.Fatalf("resolved %q", p.Name)
	}
	req = SearchRequest{Algo: "mttkrp", Shape: []int{64, 64, 64, 64}}
	if _, err := resolve(req); err != nil {
		t.Fatal(err)
	}
	req = SearchRequest{Algo: "mttkrp", Shape: []int{64}}
	if _, err := resolve(req); err == nil {
		t.Fatal("accepted short shape")
	}
	req = SearchRequest{Algo: "cnn-layer", Problem: "MTTKRP_0"}
	if _, err := resolve(req); err == nil {
		t.Fatal("resolved a problem of another algorithm")
	}
	req = SearchRequest{Algo: "gemm", Dims: map[string]int{"M": 64, "N": 64, "K": 64}}
	if p, err := resolve(req); err != nil || p.MACs() != 64*64*64 {
		t.Fatalf("gemm dims map: %v %v", p, err)
	}
	req = SearchRequest{Algo: "gemm", Dims: map[string]int{"M": 64, "N": 64}}
	if _, err := resolve(req); err == nil {
		t.Fatal("accepted incomplete dims map")
	}
	req = SearchRequest{Einsum: "O[a,b] += A[a,c] * B[c,b]", Dims: map[string]int{"a": 32, "b": 32, "c": 32}}
	if p, err := resolve(req); err != nil || p.MACs() != 32*32*32 {
		t.Fatalf("inline einsum: %v %v", p, err)
	}
}

// TestStridedJobMatchesDirectSearch pins the job's telemetry end to end: a
// 3000-eval ga job reports the trajectory a direct search of the same seed
// records, sample for sample, with the same BestEDP, Evals and
// Convergence, and publishes one event per sample plus its running and
// terminal events.
func TestStridedJobMatchesDirectSearch(t *testing.T) {
	req := SearchRequest{Algo: "cnn-layer", Problem: "ResNet_Conv_4", Searcher: "ga", Evals: 3000, Seed: 5}
	jobs := NewJobManager(NewModelRegistry(t.TempDir(), 2), nil, 1, 4)
	defer jobs.Shutdown(context.Background())
	job, err := jobs.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	done, err := jobs.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != JobDone || done.Result == nil {
		t.Fatalf("job status %s (%s)", done.Status, done.Error)
	}
	res := done.Result

	p, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	a, prob := p.arch, p.prob
	space, err := mapspace.New(a, prob)
	if err != nil {
		t.Fatal(err)
	}
	model, err := costmodel.New(req.CostModel, a, prob)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := oracle.Compute(a, prob)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := search.GeneticAlgorithm{}.Search(&search.Context{
		Space: space, Model: model, Bound: bound, Seed: req.Seed,
	}, search.Budget{MaxEvals: req.Evals})
	if err != nil {
		t.Fatal(err)
	}

	if res.Evals != direct.Evals || res.BestEDP != direct.BestEDP {
		t.Fatalf("job evals %d best %v, direct evals %d best %v", res.Evals, res.BestEDP, direct.Evals, direct.BestEDP)
	}
	if res.Convergence == nil || *res.Convergence != direct.Convergence() {
		t.Fatalf("job convergence %+v, direct %+v", res.Convergence, direct.Convergence())
	}
	if len(res.Trajectory) != len(direct.Trajectory) {
		t.Fatalf("job trajectory has %d points, direct %d", len(res.Trajectory), len(direct.Trajectory))
	}
	for i, s := range direct.Trajectory {
		if p := res.Trajectory[i]; p.Eval != s.Eval || p.BestEDP != s.BestEDP {
			t.Fatalf("job point %d is (%d, %v), direct (%d, %v)", i, p.Eval, p.BestEDP, s.Eval, s.BestEDP)
		}
	}
	// One running event, one per recorded sample, one terminal event.
	jobs.mu.Lock()
	live, _ := jobs.q.LookupLocked(job.ID)
	stream := live.Stream()
	jobs.mu.Unlock()
	if got, want := len(stream.History()), len(res.Trajectory)+2; got != want {
		t.Fatalf("job published %d events, want %d", got, want)
	}
}

// TestCostModelSelectionPerJob pins the pluggable-backend path through the
// whole service: jobs selecting different cost models run against distinct
// evaluators (distinct results) and each backend's paid evaluations are
// accounted separately (costmodel_evals_total).
func TestCostModelSelectionPerJob(t *testing.T) {
	jobs := NewJobManager(NewModelRegistry(t.TempDir(), 2), nil, 2, 8)
	defer jobs.Shutdown(context.Background())
	run := func(backend string) *JobResult {
		req := validRequest()
		req.CostModel = backend
		job, err := jobs.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		done, err := jobs.Wait(context.Background(), job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done.Status != JobDone {
			t.Fatalf("%s job finished %s (%s)", backend, done.Status, done.Error)
		}
		return done.Result
	}
	tl := run("timeloop")
	rf := run("roofline")
	if tl.BestEDP == rf.BestEDP {
		t.Fatalf("timeloop and roofline jobs agreed exactly (%v) — backend selection is not wired through", tl.BestEDP)
	}
	counts := func() [2]int64 {
		return [2]int64{jobs.counterFor("timeloop").Value(), jobs.counterFor("roofline").Value()}
	}
	if c := counts(); c != [2]int64{50, 50} {
		t.Fatalf("timeloop, roofline eval counts = %v, want 50 each", c)
	}
	// Identical reruns reproduce their results and charge each backend
	// again, only its own evaluations.
	tl2 := run("timeloop")
	rf2 := run("roofline")
	if tl2.BestEDP != tl.BestEDP || rf2.BestEDP != rf.BestEDP {
		t.Fatal("rerun diverged")
	}
	if c := counts(); c != [2]int64{100, 100} {
		t.Fatalf("timeloop, roofline eval counts after reruns = %v, want 100 each", c)
	}
}
