package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeJob is a record whose run blocks until the test releases it or its
// context is cancelled.
type fakeJob struct {
	Entry[Status]
	fail     bool
	bornDone bool          // added with AddDoneLocked
	released bool          // touched only by the test goroutine
	release  chan struct{} // closed to let the run end
	finishes int           // Finish hook calls, under the lock
	ended    int64         // endSeq when the job became terminal
}

// endSeq orders the moments jobs become terminal, across all queues.
var endSeq atomic.Int64

var (
	errFakeFull   = fmt.Errorf("fake %w", ErrFull)
	errFakeClosed = fmt.Errorf("fake: %w", ErrClosed)
)

func newFakeQueue(workers, capacity, retention int) (*Queue[fakeJob, Status, *fakeJob], *sync.Mutex) {
	mu := new(sync.Mutex)
	q := New(mu, Kind[fakeJob, Status, *fakeJob]{
		Workers:   workers,
		Cap:       capacity,
		Retention: retention,
		Span:      "fake-job",
		Events:    4,
		Full:      errFakeFull,
		Closed:    errFakeClosed,
		Run: func(ctx context.Context, j *fakeJob) (Status, error) {
			select {
			case <-ctx.Done():
				return Cancelled, nil
			case <-j.release:
			}
			if j.fail {
				return Failed, errors.New("fake failure")
			}
			return Done, nil
		},
		Event: func(j *fakeJob) Status { return j.Status },
		Finish: func(j *fakeJob) {
			j.finishes++
			j.ended = endSeq.Add(1)
		},
		Copy: func(j *fakeJob) fakeJob { return *j },
	})
	return q, mu
}

func newFakeJob(fail bool) *fakeJob {
	return &fakeJob{fail: fail, release: make(chan struct{})}
}

func closed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// checkInvariants verifies the lifecycle contract over every job the test
// ever submitted, in submission order: first in one critical section, then
// through List.
func checkInvariants(t *testing.T, q *Queue[fakeJob, Status, *fakeJob], mu *sync.Mutex, all []*fakeJob) {
	t.Helper()
	checkTable(t, q, mu, all)
	// List is the table in submission order, whatever a worker finished
	// (and retention evicted) since the check above.
	next := 0
	for _, snap := range q.List() {
		for next < len(all) && all[next].ID != snap.ID {
			next++
		}
		if next == len(all) {
			t.Fatalf("List holds %s out of submission order or never submitted", snap.ID)
		}
	}
}

func checkTable(t *testing.T, q *Queue[fakeJob, Status, *fakeJob], mu *sync.Mutex, all []*fakeJob) {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	counts := map[Status]int{}
	for _, j := range all {
		e := &j.Entry
		counts[e.Status]++
		terminal := e.Status.Terminal()
		if want := map[bool]int{true: 1, false: 0}[terminal && !j.bornDone]; j.finishes != want {
			t.Fatalf("job %s is %s after %d finishes, want %d", e.ID, e.Status, j.finishes, want)
		}
		if closed(e.done) != terminal {
			t.Fatalf("job %s is %s but done closed=%v", e.ID, e.Status, closed(e.done))
		}
		if (e.ctx == nil || e.cancel == nil) != terminal {
			t.Fatalf("job %s is %s but holds context %v, cancel func %v", e.ID, e.Status, e.ctx != nil, e.cancel != nil)
		}
		if _, ok := q.jobs[e.ID]; !ok && !terminal {
			t.Fatalf("live job %s (%s) is missing from the table", e.ID, e.Status)
		}
	}
	if len(q.pending) > q.kind.Cap {
		t.Fatalf("pending %d > cap %d", len(q.pending), q.kind.Cap)
	}
	if len(q.pending) != counts[Queued] {
		t.Fatalf("pending holds %d jobs, %d are queued", len(q.pending), counts[Queued])
	}
	for _, j := range q.pending {
		if j.Status != Queued {
			t.Fatalf("pending job %s is %s", j.ID, j.Status)
		}
	}
	if counts[Running] > q.kind.Workers {
		t.Fatalf("%d running jobs on %d workers", counts[Running], q.kind.Workers)
	}
	terminal := 0
	for _, j := range q.jobs {
		if j.Status.Terminal() {
			terminal++
		}
	}
	if terminal != q.terminal || terminal > q.retention {
		t.Fatalf("table: %d terminal (tracked %d, retention %d)", terminal, q.terminal, q.retention)
	}
	// order[head:] minus its holes is exactly the table, in submission
	// order, and holes counts the holes.
	var order []*fakeJob
	for _, j := range q.order[q.head:] {
		if j != nil {
			order = append(order, j)
		}
	}
	if q.head > 0 && q.order[q.head-1] != nil || len(q.order)-q.head-len(order) != q.holes {
		t.Fatalf("order: head %d, %d holes tracked, %d live of %d", q.head, q.holes, len(order), len(q.order))
	}
	var table []*fakeJob
	for _, j := range all {
		if q.jobs[j.ID] == j {
			table = append(table, j)
		}
	}
	if len(table) != len(q.jobs) || !slices.Equal(order, table) {
		t.Fatalf("order lists %d jobs, the table holds %d (%d submitted jobs in it), or their order differs",
			len(order), len(q.jobs), len(table))
	}
	// Oldest terminal first: a job evicted while an older one was already
	// terminal means retention skipped the older one, so every retained
	// terminal job ended after every younger evicted job.
	youngestEvictedEnd := int64(0)
	for i := len(all) - 1; i >= 0; i-- {
		j := all[i]
		switch _, kept := q.jobs[j.ID]; {
		case !kept:
			youngestEvictedEnd = max(youngestEvictedEnd, j.ended)
		case j.Status.Terminal() && j.ended < youngestEvictedEnd:
			t.Fatalf("job %s (ended %d) is retained but a younger job ended %d was evicted",
				j.ID, j.ended, youngestEvictedEnd)
		}
	}
	st := q.Stats()
	if st.Submitted != uint64(len(all)) {
		t.Fatalf("submitted %d, the test submitted %d", st.Submitted, len(all))
	}
	if sum := uint64(st.Queued+st.Running) + st.Done + st.Failed + st.Cancelled; sum != st.Submitted {
		t.Fatalf("stats %+v: queued+running+done+failed+cancelled = %d != submitted", st, sum)
	}
	if st.Queued != counts[Queued] || st.Running != counts[Running] || st.Done != uint64(counts[Done]) ||
		st.Failed != uint64(counts[Failed]) || st.Cancelled != uint64(counts[Cancelled]) {
		t.Fatalf("stats %+v disagree with job states %v", st, counts)
	}
}

// runRandomOps drives one seeded sequence of submit, add-done,
// cancel-queued, cancel-running, complete-running, retention change and
// shutdown against
// a queue of fake jobs, checking the invariants after every step.
func runRandomOps(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	workers, capacity := 1+rng.Intn(3), 1+rng.Intn(4)
	q, mu := newFakeQueue(workers, capacity, 1+rng.Intn(6))
	defer q.Shutdown(context.Background())
	var all []*fakeJob
	pick := func(status Status) *fakeJob {
		mu.Lock()
		defer mu.Unlock()
		var match []*fakeJob
		for _, j := range all {
			if j.Status == status && !j.released {
				match = append(match, j)
			}
		}
		if len(match) == 0 {
			return nil
		}
		return match[rng.Intn(len(match))]
	}
	shut := false
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 40: // submit
			j := newFakeJob(rng.Intn(3) == 0)
			mu.Lock()
			full := len(q.pending) >= capacity
			err := q.AddLocked(j, false)
			mu.Unlock()
			switch {
			case shut && !errors.Is(err, errFakeClosed):
				t.Fatalf("seed %d step %d: submit after shutdown: %v", seed, step, err)
			case !shut && full && !errors.Is(err, errFakeFull):
				t.Fatalf("seed %d step %d: submit to a full queue: %v", seed, step, err)
			case !shut && !full && err != nil:
				t.Fatalf("seed %d step %d: submit: %v", seed, step, err)
			case err == nil:
				all = append(all, j)
			}
		case op < 48: // a job served done on arrival
			j := newFakeJob(false)
			j.bornDone = true
			mu.Lock()
			err := q.AddDoneLocked(j)
			j.ended = endSeq.Add(1)
			mu.Unlock()
			switch {
			case shut && !errors.Is(err, errFakeClosed):
				t.Fatalf("seed %d step %d: add done after shutdown: %v", seed, step, err)
			case !shut && err != nil:
				t.Fatalf("seed %d step %d: add done: %v", seed, step, err)
			case err == nil:
				all = append(all, j)
			}
		case op < 55: // cancel a queued job
			if j := pick(Queued); j != nil {
				if snap, ok := q.Cancel(j.ID); !ok || (snap.Status != Cancelled && snap.Status != Running) {
					t.Fatalf("seed %d step %d: cancel queued: %v %s", seed, step, ok, snap.Status)
				}
			}
		case op < 65: // cancel a running job
			if j := pick(Running); j != nil {
				q.Cancel(j.ID)
			}
		case op < 90: // let a running job complete
			if j := pick(Running); j != nil {
				j.released = true
				close(j.release)
			}
		case op < 99:
			q.SetRetention(1 + rng.Intn(6))
		default: // shutdown, rarely: later submissions must fail
			if err := q.Shutdown(context.Background()); err != nil {
				t.Fatalf("seed %d step %d: shutdown: %v", seed, step, err)
			}
			shut = true
		}
		checkInvariants(t, q, mu, all)
	}
	if err := q.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, q, mu, all)
	for _, j := range all {
		if !j.Status.Terminal() {
			t.Fatalf("seed %d: job %s is %s after shutdown", seed, j.ID, j.Status)
		}
	}
}

// TestRandomLifecycle runs seeded random op sequences; run it under -race.
func TestRandomLifecycle(t *testing.T) {
	seeds, steps := 200, 300
	if testing.Short() {
		seeds, steps = 40, 200
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		runRandomOps(t, seed, steps)
	}
}

func TestAddPastCapAndRequeue(t *testing.T) {
	q, mu := newFakeQueue(0, 1, 8)
	mu.Lock()
	a, b, c := newFakeJob(false), newFakeJob(false), newFakeJob(false)
	if err := q.AddLocked(a, false); err != nil {
		t.Fatal(err)
	}
	if err := q.AddLocked(b, false); !errors.Is(err, ErrFull) {
		t.Fatalf("second add to a one-slot queue: %v", err)
	}
	// Recovered work queues past the cap, under its own ID.
	c.ID = "recovered"
	if err := q.AddLocked(c, true); err != nil || len(q.pending) != 2 || c.ID != "recovered" {
		t.Fatalf("past-cap add: %v, pending %d, id %q", err, len(q.pending), c.ID)
	}
	dup := newFakeJob(false)
	dup.ID = "recovered"
	if err := q.AddLocked(dup, true); err == nil {
		t.Fatal("added a duplicate id")
	}
	mu.Unlock()
	q.Cancel(a.ID)
	mu.Lock()
	if err := q.RequeueLocked(a); !errors.Is(err, ErrFull) {
		t.Fatalf("requeue into a full queue: %v", err)
	}
	mu.Unlock()
	q.Cancel(c.ID)
	mu.Lock()
	if err := q.RequeueLocked(a); err != nil || a.Status != Queued || a.Error != "" || closed(a.done) {
		t.Fatalf("requeue: %v, %s", err, a.Status)
	}
	mu.Unlock()
	q.Shutdown(context.Background())
	if st := q.Stats(); st.Submitted != 3 || st.Cancelled != 3 || st.Queued != 0 {
		t.Fatalf("stats after shutdown: %+v", st)
	}
}

// TestAddDoneCountsWithoutFinishHook pins the born-terminal path: counted
// submitted and done, final event published, done closed, no Finish call.
func TestAddDoneCountsWithoutFinishHook(t *testing.T) {
	q, mu := newFakeQueue(0, 1, 8)
	defer q.Shutdown(context.Background())
	j := newFakeJob(false)
	mu.Lock()
	err := q.AddDoneLocked(j)
	mu.Unlock()
	if err != nil || j.Status != Done || !closed(j.done) || j.finishes != 0 {
		t.Fatalf("add done: %v, %s, finishes %d", err, j.Status, j.finishes)
	}
	if ev, ok := q.Final(j.ID); !ok || ev != Done {
		t.Fatalf("final event %v %v", ev, ok)
	}
	if hist, ok := q.Events(j.ID); !ok || len(hist) != 1 || hist[0] != Done {
		t.Fatalf("history %v", hist)
	}
	if st := q.Stats(); st.Submitted != 1 || st.Done != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestAddDoneStreamHoldsOnlyFinalEvent pins the born-done stream: its
// history and a late subscriber see exactly the final event, and adding
// the job does not allocate a Kind.Events-sized ring.
func TestAddDoneStreamHoldsOnlyFinalEvent(t *testing.T) {
	q, mu := newFakeQueue(0, 1, 8)
	defer q.Shutdown(context.Background())
	q.kind.Events = 1 << 16 // a 1 MiB ring of Status strings if allocated
	j := newFakeJob(false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mu.Lock()
	err := q.AddDoneLocked(j)
	mu.Unlock()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("adding a done job allocated %d bytes", got)
	}
	if hist, ok := q.Events(j.ID); !ok || !slices.Equal(hist, []Status{Done}) {
		t.Fatalf("history %v", hist)
	}
	hist, ch, cancel, ok := q.Watch(j.ID)
	defer cancel()
	if _, open := <-ch; !ok || open || !slices.Equal(hist, []Status{Done}) {
		t.Fatalf("watch: history %v, channel open %v", hist, open)
	}
}

// TestWaitReturnsEvictedJob pins that Wait answers with the record it
// waited on even when retention evicted it before Wait woke.
func TestWaitReturnsEvictedJob(t *testing.T) {
	for attempt := 1; ; attempt++ {
		q, mu := newFakeQueue(0, 4, 1)
		a := newFakeJob(false)
		mu.Lock()
		if err := q.AddLocked(a, false); err != nil {
			t.Fatal(err)
		}
		mu.Unlock()
		type result struct {
			snap fakeJob
			err  error
		}
		got := make(chan result, 1)
		go func() {
			snap, err := q.Wait(context.Background(), a.ID)
			got <- result{snap, err}
		}()
		time.Sleep(time.Duration(attempt) * 10 * time.Millisecond) // let Wait block on a
		mu.Lock()
		q.finishLocked(a, Cancelled, nil)
		if err := q.AddDoneLocked(newFakeJob(false)); err != nil { // evicts a
			t.Fatal(err)
		}
		mu.Unlock()
		if _, ok := q.Get(a.ID); ok {
			t.Fatal("a survived eviction")
		}
		r := <-got
		q.Shutdown(context.Background())
		if errors.Is(r.err, ErrUnknown) && attempt < 5 {
			continue // Wait looked a up only after the eviction; block longer
		}
		if r.err != nil || r.snap.ID != a.ID || r.snap.Status != Cancelled {
			t.Fatalf("Wait returned %q %s (%v), want %q cancelled", r.snap.ID, r.snap.Status, r.err, a.ID)
		}
		return
	}
}

// TestTerminalEntryKeepsWhatReadersRead pins what a terminal entry keeps:
// no context or cancel func, a stream holding exactly its history, and
// readers that answer as they did while the job still held them. Cancel is
// a no-op, Wait returns at once, Watch replays the history on a closed
// channel, Trace reports the status, and a requeue runs the job again
// under a fresh context.
func TestTerminalEntryKeepsWhatReadersRead(t *testing.T) {
	q, mu := newFakeQueue(1, 4, 8)
	defer q.Shutdown(context.Background())
	done, failed, running, queued := newFakeJob(false), newFakeJob(true), newFakeJob(false), newFakeJob(false)
	born := newFakeJob(false)
	mu.Lock()
	for _, j := range []*fakeJob{done, failed, running, queued} {
		if err := q.AddLocked(j, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.AddDoneLocked(born); err != nil {
		t.Fatal(err)
	}
	mu.Unlock()
	ctx := context.Background()
	// One worker takes the jobs in order: done, failed, then running,
	// which is cancelled mid-run; queued is cancelled from the FIFO.
	close(done.release)
	close(failed.release)
	waitFor := func(j *fakeJob, want Status) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if snap, _ := q.Get(j.ID); snap.Status == want {
				return
			} else if time.Now().After(deadline) {
				t.Fatalf("job %s is %s, want %s", j.ID, snap.Status, want)
			}
		}
	}
	waitFor(running, Running)
	q.Cancel(queued.ID)
	q.Cancel(running.ID)
	want := map[*fakeJob]Status{done: Done, failed: Failed, running: Cancelled, queued: Cancelled, born: Done}
	for j, status := range want {
		if _, err := q.Wait(ctx, j.ID); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		e := &j.Entry
		ctxHeld, cancelHeld := e.ctx != nil, e.cancel != nil
		mu.Unlock()
		if ctxHeld || cancelHeld {
			t.Fatalf("%s job holds context %v, cancel func %v", status, ctxHeld, cancelHeld)
		}
		before := q.Stats()
		if snap, ok := q.Cancel(j.ID); !ok || snap.Status != status || q.Stats() != before {
			t.Fatalf("cancel of a %s job: %v, %s, stats %+v -> %+v", status, ok, snap.Status, before, q.Stats())
		}
		if snap, err := q.Wait(ctx, j.ID); err != nil || snap.Status != status {
			t.Fatalf("wait on a %s job: %s, %v", status, snap.Status, err)
		}
		events, ok := q.Events(j.ID)
		if !ok || len(events) == 0 || events[len(events)-1] != status {
			t.Fatalf("events of a %s job: %v", status, events)
		}
		hist, ch, cancel, ok := q.Watch(j.ID)
		_, open := <-ch
		cancel()
		if !ok || open || !slices.Equal(hist, events) {
			t.Fatalf("watch of a %s job: history %v (events %v), channel open %v", status, hist, events, open)
		}
		if tr, ok := q.Trace(j.ID); !ok || tr.Running || tr.Attrs["status"] != string(status) {
			t.Fatalf("trace of a %s job: %+v", status, tr)
		}
	}
	// A requeued job runs again under a fresh context and can be
	// cancelled while it runs.
	mu.Lock()
	err := q.RequeueLocked(running)
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	waitFor(running, Running)
	q.Cancel(running.ID)
	if snap, err := q.Wait(ctx, running.ID); err != nil || snap.Status != Cancelled {
		t.Fatalf("requeued job ended %s, %v", snap.Status, err)
	}
}
