package service

import (
	"bytes"
	"context"
	"testing"
	"time"

	"mindmappings/internal/infer"
	"mindmappings/internal/search"
	"mindmappings/internal/surrogate"
)

// mmRequest is the shared mm job used by the batching tests: small enough
// to finish quickly, large enough that the gradient loop issues many
// surrogate batches through the batcher.
func mmRequest(seed int64) SearchRequest {
	return SearchRequest{
		Algo:     "conv1d",
		Shape:    []int{1024, 5},
		Searcher: "mm",
		Model:    "conv1d.surrogate",
		Evals:    60,
		Seed:     seed,
	}
}

func runJobs(t *testing.T, jm *JobManager, reqs []SearchRequest) []*JobResult {
	t.Helper()
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		job, err := jm.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = job.ID
	}
	out := make([]*JobResult, len(ids))
	for i, id := range ids {
		done, err := jm.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if done.Status != JobDone {
			t.Fatalf("job %d status %s (%s)", i, done.Status, done.Error)
		}
		out[i] = done.Result
	}
	return out
}

// TestBatchedJobsBitIdenticalToDirect is the determinism acceptance test
// for the cross-request batcher: four concurrent mm jobs whose surrogate
// queries are coalesced into shared GEMM batches must each produce the
// exact result (best EDP, eval count, trajectory) the same request gets
// with batching disabled. Works because each GEMM output row depends only
// on its own input row, so batch composition can never leak between jobs.
func TestBatchedJobsBitIdenticalToDirect(t *testing.T) {
	dir := modelDir(t, "conv1d.surrogate")
	reqs := make([]SearchRequest, 4)
	for i := range reqs {
		reqs[i] = mmRequest(int64(100 + i))
	}

	run := func(cfg infer.Config) []*JobResult {
		jm := NewJobManager(NewModelRegistry(dir, 4), NewEvalCache(1<<14), 4, 16)
		defer jm.Shutdown(context.Background())
		jm.SetBatching(cfg)
		return runJobs(t, jm, reqs)
	}
	// A generous window forces real coalescing: flushes come from full
	// batches and anti-stall, not timer expiry racing the enqueue.
	batched := run(infer.Config{Window: 5 * time.Millisecond, MaxBatch: 64})
	direct := run(infer.Config{Window: 0})

	for i := range reqs {
		b, d := batched[i], direct[i]
		if b.BestEDP != d.BestEDP || b.Evals != d.Evals {
			t.Fatalf("job %d diverged under batching: best %v/%v evals %d/%d",
				i, b.BestEDP, d.BestEDP, b.Evals, d.Evals)
		}
		if len(b.Trajectory) != len(d.Trajectory) {
			t.Fatalf("job %d trajectory %d vs %d", i, len(b.Trajectory), len(d.Trajectory))
		}
		for j := range b.Trajectory {
			if b.Trajectory[j].BestEDP != d.Trajectory[j].BestEDP {
				t.Fatalf("job %d trajectory[%d] %v vs %v",
					i, j, b.Trajectory[j].BestEDP, d.Trajectory[j].BestEDP)
			}
		}
	}
}

// TestBatcherMetricsExposed checks the wiring from JobManager to obs: an
// instrumented manager running concurrent mm jobs must record batcher
// flushes, batch sizes, and window waits under the model's label, and the
// series must surface in the Prometheus exposition.
func TestBatcherMetricsExposed(t *testing.T) {
	dir := modelDir(t, "conv1d.surrogate")
	jm := NewJobManager(NewModelRegistry(dir, 4), NewEvalCache(1<<14), 4, 16)
	defer jm.Shutdown(context.Background())
	reg := jm.reg
	jm.SetBatching(infer.Config{Window: 2 * time.Millisecond, MaxBatch: 32})

	reqs := make([]SearchRequest, 4)
	for i := range reqs {
		reqs[i] = mmRequest(int64(7 + i))
	}
	runJobs(t, jm, reqs)

	names, vals := []string{"model"}, []string{"conv1d.surrogate"}
	var flushes int64
	for _, reason := range []infer.FlushReason{infer.FlushFull, infer.FlushAntiStall, infer.FlushWindow} {
		flushes += reg.CounterWith("infer_batch_flushes_total", "", []string{"model", "reason"},
			[]string{"conv1d.surrogate", string(reason)}).Value()
	}
	if flushes == 0 {
		t.Fatal("no batcher flushes recorded")
	}
	if n := reg.HistogramWith("infer_batch_rows", "", nil, names, vals).Count(); n == 0 {
		t.Fatal("no batch sizes observed")
	}
	if n := reg.HistogramWith("infer_batch_wait_seconds", "", nil, names, vals).Count(); n == 0 {
		t.Fatal("no window waits observed")
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`infer_batch_flushes_total{model="conv1d.surrogate"`,
		`infer_batch_rows_bucket{model="conv1d.surrogate"`,
		`infer_batch_queue_rows{model="conv1d.surrogate"`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("Prometheus exposition missing %s\n%s", want, text)
		}
	}
}

// TestBatcherPinnedToSurrogatePointer is a white-box check of the
// registry-reload hazard: the per-model batcher must be rebuilt when the
// surrogate instance behind a name changes (LRU eviction + reload, or a
// republish), and reused while the pointer is stable.
func TestBatcherPinnedToSurrogatePointer(t *testing.T) {
	jm := NewJobManager(NewModelRegistry(t.TempDir(), 2), NewEvalCache(16), 1, 4)
	defer jm.Shutdown(context.Background())
	load := func() *surrogate.Surrogate {
		sur, err := surrogate.Load(bytes.NewReader(surrogateBytes(t)))
		if err != nil {
			t.Fatal(err)
		}
		return sur
	}
	surA, surB := load(), load()

	b1 := jm.batcherFor("m", surA)
	if !b1.Enabled() {
		t.Fatal("batching should be on by default")
	}
	if b2 := jm.batcherFor("m", surA); b2 != b1 {
		t.Fatal("stable surrogate pointer must reuse the batcher")
	}
	if b3 := jm.batcherFor("m", surB); b3 == b1 || b3.Surrogate() != surB {
		t.Fatal("reloaded surrogate must get a fresh batcher")
	}
	if other := jm.batcherFor("other", surA); other == b1 {
		t.Fatal("models must not share a batcher")
	}

	jm.SetBatching(infer.Config{Window: 0})
	if b := jm.batcherFor("m", surA); b.Enabled() {
		t.Fatal("window 0 must disable batching")
	}
}

// TestBatchingDefaultsInSearcher checks the end of the wiring: a plain
// manager (no SetBatching call) hands mm jobs an infer client, and the
// cleanup returned by searcher() deregisters it.
func TestBatchingDefaultsInSearcher(t *testing.T) {
	dir := modelDir(t, "conv1d.surrogate")
	jm := NewJobManager(NewModelRegistry(dir, 4), NewEvalCache(16), 1, 4)
	defer jm.Shutdown(context.Background())

	req := mmRequest(1)
	p, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	s, cleanup, err := jm.searcher(context.Background(), &req, p)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	// The searcher must be a MindMappings whose Queries field routes
	// through a batcher client rather than nil (direct surrogate).
	mm, ok := s.(search.MindMappings)
	if !ok {
		t.Fatalf("searcher type %T", s)
	}
	if mm.Queries == nil {
		t.Fatal("mm job not routed through the batcher client")
	}
	if _, ok := mm.Queries.(*infer.Client); !ok {
		t.Fatalf("Queries type %T", mm.Queries)
	}
}
