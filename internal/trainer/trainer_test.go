package trainer

import (
	"context"
	"strings"
	"testing"
	"time"

	"mindmappings/internal/modelstore"
)

func testPipeline(t *testing.T, workers, queueCap int) *Pipeline {
	t.Helper()
	st, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := New(st, workers, queueCap)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := p.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return p
}

// tinyRequest is a seconds-scale end-to-end training request.
func tinyRequest() Request {
	return Request{
		Algo:        "conv1d",
		Samples:     500,
		Problems:    3,
		Epochs:      5,
		HiddenSizes: []int{16},
		Seed:        3,
	}
}

func waitStatus(t *testing.T, p *Pipeline, id string, timeout time.Duration) Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	job, err := p.Wait(ctx, id)
	if err != nil {
		t.Fatalf("waiting for job %s: %v", id, err)
	}
	return job
}

func TestPipelineEndToEnd(t *testing.T) {
	p := testPipeline(t, 1, 4)
	job, err := p.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, p, job.ID, 2*time.Minute)
	if done.Status != StatusDone {
		t.Fatalf("status %s, error %q", done.Status, done.Error)
	}
	if done.Artifact == nil {
		t.Fatal("done job has no artifact")
	}
	m := done.Artifact
	if m.Algo != "conv1d" || m.Version != 1 || m.Epochs != 5 || m.Samples != 500 {
		t.Fatalf("manifest: %+v", m)
	}
	if len(m.TrainLoss) != 5 || m.FinalTrain <= 0 {
		t.Fatalf("loss history: %v", m.TrainLoss)
	}
	if done.Progress.Phase != PhasePublish || done.Progress.Epoch != 5 {
		t.Fatalf("final progress: %+v", done.Progress)
	}
	// The artifact is loadable and resolvable from the store.
	if _, err := p.store.Load(m.ID); err != nil {
		t.Fatal(err)
	}
	best, ok := p.store.ResolveMatching(m.AlgoFP, nil)
	if !ok || best.ID != m.ID {
		t.Fatalf("resolve: %+v ok=%v", best, ok)
	}
	if st := p.q.Stats(); st.Done != 1 || st.Submitted != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestWatchAndTrace pins the telemetry contract: Watch streams
// monotonically progressing events ending with the terminal status, the
// stream closes at completion, and the trace tree holds the
// generate/train/publish phase spans (all ended, correctly ordered).
func TestWatchAndTrace(t *testing.T) {
	p := testPipeline(t, 1, 4)
	job, err := p.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	hist, ch, cancel, ok := p.Watch(job.ID)
	if !ok {
		t.Fatal("Watch: unknown job")
	}
	defer cancel()
	events := append([]Event(nil), hist...)
	deadline := time.After(2 * time.Minute)
	for {
		select {
		case ev, open := <-ch:
			if !open {
				goto drained
			}
			events = append(events, ev)
		case <-deadline:
			t.Fatal("event stream never closed")
		}
	}
drained:
	if len(events) == 0 {
		t.Fatal("no events published")
	}
	last := events[len(events)-1]
	if last.Status != StatusDone {
		t.Fatalf("final event status %s (error %q)", last.Status, last.Error)
	}
	// Progress never regresses: samples-done and epoch are monotone.
	samples, epoch := 0, 0
	for i, ev := range events {
		if ev.Progress.SamplesDone < samples || ev.Progress.Epoch < epoch {
			t.Fatalf("event %d regressed: %+v after samples=%d epoch=%d", i, ev.Progress, samples, epoch)
		}
		samples, epoch = ev.Progress.SamplesDone, ev.Progress.Epoch
	}
	if epoch != 5 {
		t.Fatalf("final epoch %d, want 5", epoch)
	}

	snap, ok := p.Trace(job.ID)
	if !ok {
		t.Fatal("Trace: unknown job")
	}
	if snap.Name != "train-job" || snap.Running {
		t.Fatalf("root span: %+v", snap)
	}
	if snap.Attrs["status"] != string(StatusDone) {
		t.Fatalf("root status attr: %v", snap.Attrs)
	}
	var order []string
	for _, c := range snap.Children {
		if c.Running {
			t.Fatalf("child span %q still running in a done job", c.Name)
		}
		if c.StartMS < 0 || c.DurationMS < 0 {
			t.Fatalf("child span %q has negative timing: %+v", c.Name, c)
		}
		order = append(order, c.Name)
	}
	want := []string{PhaseGenerate, "resolve-warm", PhaseTrain, PhasePublish}
	if len(order) != len(want) {
		t.Fatalf("phase spans %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("phase spans %v, want %v", order, want)
		}
	}
}

func TestInlineEinsumAndValidation(t *testing.T) {
	p := testPipeline(t, 1, 4)
	req := tinyRequest()
	req.Algo = ""
	req.Einsum = "O[a,b] += A[a,c] * B[c,b]"
	job, err := p.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, p, job.ID, 2*time.Minute)
	if done.Status != StatusDone {
		t.Fatalf("inline einsum job: %s (%s)", done.Status, done.Error)
	}

	bad := []Request{
		{},                                  // neither algo nor einsum
		{Algo: "conv1d", Einsum: "x"},       // both
		{Algo: "transformer"},               // unknown algo
		{Algo: "conv1d", Config: "jumbo"},   // unknown config
		{Algo: "conv1d", CostModel: "abra"}, // unknown backend
		{Algo: "conv1d", Samples: -1},       // negative override
	}
	for i, r := range bad {
		if _, err := p.Submit(r); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
	tooMany := Request{Algo: "conv1d", Problems: 57} // conv1d draws 56 distinct problems
	if err := tooMany.Validate(); err == nil || !strings.Contains(err.Error(), "only 56") {
		t.Errorf("57 conv1d problems: Validate = %v, want a rejection naming 56", err)
	}
	if _, err := p.Submit(Request{Algo: "conv1d", Warm: "nope", Samples: 60, Problems: 2, Epochs: 1, HiddenSizes: []int{8}}); err != nil {
		t.Fatal(err) // unknown warm parents fail at run time, not submit
	}
}

func TestWarmStartAutoSetsLineage(t *testing.T) {
	p := testPipeline(t, 1, 4)
	cold, err := p.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	coldDone := waitStatus(t, p, cold.ID, 2*time.Minute)
	if coldDone.Status != StatusDone {
		t.Fatalf("cold: %s (%s)", coldDone.Status, coldDone.Error)
	}

	warmReq := tinyRequest()
	warmReq.Seed = 11
	warmReq.Warm = "auto"
	warm, err := p.Submit(warmReq)
	if err != nil {
		t.Fatal(err)
	}
	warmDone := waitStatus(t, p, warm.ID, 2*time.Minute)
	if warmDone.Status != StatusDone {
		t.Fatalf("warm: %s (%s)", warmDone.Status, warmDone.Error)
	}
	if warmDone.Artifact.Parent != coldDone.Artifact.ID {
		t.Fatalf("warm lineage: parent %q, want %q", warmDone.Artifact.Parent, coldDone.Artifact.ID)
	}
	if warmDone.Artifact.Version != 2 {
		t.Fatalf("warm version %d, want 2", warmDone.Artifact.Version)
	}
	if warmDone.Progress.Parent != coldDone.Artifact.ID {
		t.Fatalf("progress parent: %+v", warmDone.Progress)
	}

	// Auto with an incompatible topology falls back to a cold start.
	fallback := tinyRequest()
	fallback.Seed = 13
	fallback.Warm = "auto"
	fallback.HiddenSizes = []int{24}
	fb, err := p.Submit(fallback)
	if err != nil {
		t.Fatal(err)
	}
	fbDone := waitStatus(t, p, fb.ID, 2*time.Minute)
	if fbDone.Status != StatusDone {
		t.Fatalf("fallback: %s (%s)", fbDone.Status, fbDone.Error)
	}
	if fbDone.Artifact.Parent != "" {
		t.Fatalf("incompatible auto parent not dropped: %+v", fbDone.Artifact)
	}

	// An explicitly named incompatible parent is an error, not a fallback.
	strict := fallback
	strict.Seed = 17
	strict.Warm = coldDone.Artifact.ID
	sj, err := p.Submit(strict)
	if err != nil {
		t.Fatal(err)
	}
	sjDone := waitStatus(t, p, sj.ID, 2*time.Minute)
	if sjDone.Status != StatusFailed {
		t.Fatalf("incompatible explicit parent: %s", sjDone.Status)
	}
}

// TestCancelMidEpochAndResume is the checkpoint/resume acceptance test: a
// training job cancelled between epochs stays resumable, and the resumed
// job skips dataset generation, continues from the checkpointed epoch, and
// publishes a full-history artifact.
func TestCancelMidEpochAndResume(t *testing.T) {
	p := testPipeline(t, 1, 4)
	req := tinyRequest()
	req.Samples = 1500
	req.Epochs = 60
	req.HiddenSizes = []int{32, 32}
	job, err := p.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// Let it get through generation and at least two epochs.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		snap, ok := p.Get(job.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if snap.Progress.Epoch >= 2 {
			break
		}
		if snap.Status.Terminal() {
			t.Fatalf("job finished before it could be cancelled: %s (%s)", snap.Status, snap.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached epoch 2: %+v", snap.Progress)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := p.Cancel(job.ID); !ok {
		t.Fatal("cancel: unknown job")
	}
	cancelled := waitStatus(t, p, job.ID, 30*time.Second)
	if cancelled.Status != StatusCancelled {
		t.Fatalf("status %s after cancel", cancelled.Status)
	}
	if !cancelled.Resumable {
		t.Fatal("cancelled mid-training but not resumable")
	}
	ckEpoch := cancelled.Progress.Epoch
	if ckEpoch < 2 || ckEpoch >= 60 {
		t.Fatalf("checkpoint epoch %d", ckEpoch)
	}

	// Resume twice (a client retry): each successor must run from its own
	// copy of the checkpoint, not clobber the other's state.
	resumed, err := p.Resume(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ResumedFrom != job.ID {
		t.Fatalf("resumed-from %q", resumed.ResumedFrom)
	}
	resumed2, err := p.Resume(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, p, resumed.ID, 5*time.Minute)
	if done.Status != StatusDone {
		t.Fatalf("resumed job: %s (%s)", done.Status, done.Error)
	}
	if done.Artifact == nil || len(done.Artifact.TrainLoss) != 60 {
		t.Fatalf("resumed artifact history: %+v", done.Artifact)
	}
	done2 := waitStatus(t, p, resumed2.ID, 5*time.Minute)
	if done2.Status != StatusDone || len(done2.Artifact.TrainLoss) != 60 {
		t.Fatalf("second resume: %s (%s), history %d", done2.Status, done2.Error, len(done2.Artifact.TrainLoss))
	}
	if done2.Artifact.ID != done.Artifact.ID {
		t.Fatalf("identical resumes published different artifacts: %s vs %s", done.Artifact.ID, done2.Artifact.ID)
	}
	// The resumed job must not have regenerated the dataset: its progress
	// starts in the train phase with samples already complete.
	if done.Progress.SamplesDone != 1500 {
		t.Fatalf("resumed progress: %+v", done.Progress)
	}

	// Terminal-done jobs do not resume.
	if _, err := p.Resume(resumed.ID); err == nil {
		t.Fatal("resumed a done job")
	}
	if _, err := p.Resume("missing"); err == nil {
		t.Fatal("resumed an unknown job")
	}
}

func TestEnsureDeduplicatesActiveJobs(t *testing.T) {
	p := testPipeline(t, 1, 4)
	req := tinyRequest()
	req.Samples = 4000
	req.Epochs = 200
	first, err := p.Ensure(req)
	if err != nil {
		t.Fatal(err)
	}
	// An equivalent request — even with a different label — joins the
	// active job instead of training twice.
	dup := req
	dup.Name = "different-label"
	second, err := p.Ensure(dup)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Fatalf("ensure enqueued a duplicate: %s vs %s", second.ID, first.ID)
	}
	// A genuinely different request does not join.
	other := req
	other.Seed = 99
	third, err := p.Ensure(other)
	if err != nil {
		t.Fatal(err)
	}
	if third.ID == first.ID {
		t.Fatal("distinct requests joined")
	}
	p.Cancel(first.ID)
	p.Cancel(third.ID)
	waitStatus(t, p, first.ID, 30*time.Second)
	waitStatus(t, p, third.ID, 30*time.Second)
	// Once the first job is terminal, Ensure starts a fresh run.
	fresh, err := p.Ensure(req)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == first.ID {
		t.Fatal("ensure returned a terminal job")
	}
	p.Cancel(fresh.ID)
}

func TestShutdownCancelsTrainingJobs(t *testing.T) {
	st, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := New(st, 1, 4)
	req := tinyRequest()
	req.Samples = 4000
	req.Epochs = 500
	job, err := p.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	snap, ok := p.Get(job.ID)
	if !ok || snap.Status != StatusCancelled {
		t.Fatalf("after shutdown: %+v", snap)
	}
	if _, err := p.Submit(tinyRequest()); err == nil {
		t.Fatal("submit accepted after shutdown")
	}
}

// TestCancelQueuedTrainingJobFreesSlot pins that cancelling a queued job
// frees its queue slot at once: with the one worker busy and a one-slot
// queue, submit B, cancel B, and C must be accepted without waiting for a
// worker to drain B.
func TestCancelQueuedTrainingJobFreesSlot(t *testing.T) {
	p := testPipeline(t, 1, 1)
	long := tinyRequest()
	long.Samples = 4000
	long.Epochs = 500
	a, err := p.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for snap, _ := p.Get(a.ID); snap.Status != StatusRunning; snap, _ = p.Get(a.ID) {
		if time.Now().After(deadline) {
			t.Fatalf("job A never started: %s", snap.Status)
		}
		time.Sleep(time.Millisecond)
	}
	b, err := p.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	if snap, ok := p.Cancel(b.ID); !ok || snap.Status != StatusCancelled {
		t.Fatalf("cancel queued B: %v %s", ok, snap.Status)
	}
	c, err := p.Submit(long)
	if err != nil {
		t.Fatalf("submit C after cancelling queued B: %v", err)
	}
	if st := p.q.Stats(); st.Submitted != 3 || st.Queued != 1 || st.Running != 1 || st.Cancelled != 1 {
		t.Fatalf("stats %+v", st)
	}
	p.Cancel(c.ID)
	p.Cancel(a.ID)
}
