package service

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

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
		{"negative parallelism", func(r *SearchRequest) { r.Parallelism = -1 }, false},
		{"parallelism", func(r *SearchRequest) { r.Parallelism = 8 }, true},
		{"huge parallelism capped not rejected", func(r *SearchRequest) { r.Parallelism = 10_000 }, true},
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

// TestParallelJobMatchesSerialJob pins the service-level contract of the
// parallel evaluation fan-out: a job with Parallelism set produces the
// exact same search result as the same request run serially, sharing the
// service's eval cache along the way.
func TestParallelJobMatchesSerialJob(t *testing.T) {
	jobs := NewJobManager(NewModelRegistry(t.TempDir(), 2), NewEvalCache(4096), 2, 8)
	defer jobs.Shutdown(context.Background())
	run := func(parallelism int) *JobResult {
		req := validRequest()
		req.Searcher = "ga"
		req.Evals = 300
		req.Parallelism = parallelism
		job, err := jobs.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		done, err := jobs.Wait(context.Background(), job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done.Status != JobDone {
			t.Fatalf("job status %s (%s)", done.Status, done.Error)
		}
		return done.Result
	}
	serial := run(0)
	parallel := run(8)
	if serial.BestEDP != parallel.BestEDP || serial.Evals != parallel.Evals {
		t.Fatalf("parallel job diverged: best %v/%v evals %d/%d",
			serial.BestEDP, parallel.BestEDP, serial.Evals, parallel.Evals)
	}
	if len(serial.Trajectory) != len(parallel.Trajectory) {
		t.Fatalf("trajectory lengths %d vs %d", len(serial.Trajectory), len(parallel.Trajectory))
	}
}

// TestLargeJobTrajectoryIsStrided checks that big evaluation budgets get
// an automatic stride bounding the retained trajectory.
func TestLargeJobTrajectoryIsStrided(t *testing.T) {
	req := validRequest()
	req.Evals = 100 * maxTrajectorySamples
	b, err := req.budget()
	if err != nil {
		t.Fatal(err)
	}
	if b.TrajectoryStride != 100 {
		t.Fatalf("stride = %d, want 100", b.TrajectoryStride)
	}
	req.Evals = maxTrajectorySamples
	if b, err = req.budget(); err != nil || b.TrajectoryStride != 0 {
		t.Fatalf("small budgets must not be strided (stride=%d err=%v)", b.TrajectoryStride, err)
	}
	// Time-only budgets get a rate-estimated stride so long jobs cannot
	// accumulate unbounded trajectories either. boundTime is the budget
	// the estimate fills with exactly maxTrajectorySamples evaluations.
	boundTime := time.Duration(maxTrajectorySamples) * time.Second / evalsPerSecondEstimate
	req.Evals = 0
	req.Time = (100 * boundTime).String()
	if b, err = req.budget(); err != nil || b.TrajectoryStride != 100 {
		t.Fatalf("time-only budget %s stride = %d (err=%v), want 100", req.Time, b.TrajectoryStride, err)
	}
	req.Time = boundTime.String()
	if b, err = req.budget(); err != nil || b.TrajectoryStride != 0 {
		t.Fatalf("short time budgets must not be strided (stride=%d err=%v)", b.TrajectoryStride, err)
	}

	// End to end: a job above the threshold returns a bounded trajectory.
	jobs := NewJobManager(NewModelRegistry(t.TempDir(), 2), NewEvalCache(1024), 1, 4)
	defer jobs.Shutdown(context.Background())
	req = validRequest()
	req.Evals = maxTrajectorySamples + 4096
	job, err := jobs.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	done, err := jobs.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != JobDone {
		t.Fatalf("job status %s (%s)", done.Status, done.Error)
	}
	if n := len(done.Result.Trajectory); n > maxTrajectorySamples+1024 {
		t.Fatalf("trajectory has %d samples despite stride", n)
	}
	if done.Result.Evals != req.Evals {
		t.Fatalf("evals %d, want %d", done.Result.Evals, req.Evals)
	}
}

// TestStridedJobMatchesDirectSearch pins the telemetry bound end to end: a
// ga job above maxTrajectorySamples evaluations records every improvement
// plus at most maxTrajectorySamples stride samples, publishes no more
// events than that, and thinning changes nothing the job reports about
// the search: BestEDP, Evals and Convergence equal an unthinned direct
// run of the same seed.
func TestStridedJobMatchesDirectSearch(t *testing.T) {
	req := SearchRequest{Algo: "cnn-layer", Problem: "ResNet_Conv_4", Searcher: "ga", Evals: 3000, Seed: 5}
	jobs := NewJobManager(NewModelRegistry(t.TempDir(), 2), NewEvalCache(1<<14), 1, 4)
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
	// Every job point is a direct point, and every improvement is kept.
	directBest := make(map[int]float64, len(direct.Trajectory))
	for _, s := range direct.Trajectory {
		directBest[s.Eval] = s.BestEDP
	}
	kept := make(map[int]float64, len(res.Trajectory))
	for _, p := range res.Trajectory {
		if want, ok := directBest[p.Eval]; !ok || want != p.BestEDP {
			t.Fatalf("job point %+v is not on the direct trajectory", p)
		}
		kept[p.Eval] = p.BestEDP
	}
	improvements := 0
	best := math.Inf(1)
	for _, s := range direct.Trajectory {
		if s.BestEDP >= best {
			continue
		}
		best = s.BestEDP
		improvements++
		if got, ok := kept[s.Eval]; !ok || got != s.BestEDP {
			t.Fatalf("improvement at eval %d (best %v) missing from the job trajectory", s.Eval, s.BestEDP)
		}
	}
	if n := len(res.Trajectory); n > maxTrajectorySamples+improvements || n >= len(direct.Trajectory) {
		t.Fatalf("job trajectory has %d points: want at most %d (%d improvements), fewer than the direct %d",
			n, maxTrajectorySamples+improvements, improvements, len(direct.Trajectory))
	}
	// One running event, one per recorded sample, one terminal event.
	jobs.mu.Lock()
	live, _ := jobs.q.LookupLocked(job.ID)
	stream := live.Stream()
	jobs.mu.Unlock()
	if got, want := stream.Total(), uint64(len(res.Trajectory)+2); got != want {
		t.Fatalf("job published %d events, want %d", got, want)
	}
}

// TestCostModelSelectionPerJob pins the pluggable-backend path through the
// whole service: jobs selecting different cost models run against distinct
// evaluators (distinct results, distinct cache entries) and each backend's
// paid evaluations are accounted separately (costmodel_evals_total).
func TestCostModelSelectionPerJob(t *testing.T) {
	jobs := NewJobManager(NewModelRegistry(t.TempDir(), 2), NewEvalCache(4096), 2, 8)
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
		return [2]int64{jobs.counterFor("timeloop").Count(), jobs.counterFor("roofline").Count()}
	}
	if c := counts(); c != [2]int64{50, 50} {
		t.Fatalf("timeloop, roofline eval counts = %v, want 50 each", c)
	}
	// Identical reruns must be served from the shared cache without
	// charging the backends again — and stay backend-separated.
	tl2 := run("timeloop")
	rf2 := run("roofline")
	if tl2.BestEDP != tl.BestEDP || rf2.BestEDP != rf.BestEDP {
		t.Fatal("cached rerun diverged")
	}
	if c := counts(); c != [2]int64{50, 50} {
		t.Fatalf("cache hits charged a backend: %v", c)
	}
}
