// Package jobqueue is the job lifecycle shared by the service's two job
// kinds, search jobs (service.JobManager) and training jobs
// (trainer.Pipeline): the job table, a bounded FIFO drained by a worker
// pool, the queued → running → terminal transitions, retention of
// finished jobs, and shutdown. A kind embeds Entry in its record type and
// supplies only what differs (Kind): how a job runs, the event that
// reports its status, a hook for its own terminal bookkeeping, and how a
// record is snapshotted.
//
// The queue runs under a lock the kind passes to New, so the kind's own
// fields can share it: Kind.Finish then updates them in the same critical
// section that makes a job terminal. Methods suffixed Locked expect the
// caller to hold that lock; every other method takes it itself.
package jobqueue

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"mindmappings/internal/obs"
)

// Status is the lifecycle state of a job.
type Status string

const (
	Queued    Status = "queued"
	Running   Status = "running"
	Done      Status = "done"
	Failed    Status = "failed"
	Cancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled
}

// The errors a kind's submissions map to HTTP statuses: Kind.Full and
// Kind.Closed wrap ErrFull and ErrClosed, and a lookup of an id the table
// does not hold wraps ErrUnknown.
var (
	ErrFull    = errors.New("queue is full")
	ErrClosed  = errors.New("shutting down")
	ErrUnknown = errors.New("unknown job")
)

// Entry is the lifecycle half of a job record. A kind's record type embeds
// it, which makes a pointer to the record a Record and promotes these
// fields into the record's JSON. The queue owns every field: kinds read
// them under the lock and never write them.
type Entry[E any] struct {
	ID       string    `json:"id"`
	Status   Status    `json:"status"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`

	// ctx and cancel are nil while the job is terminal.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	stream *obs.Stream[E]
	trace  *obs.Trace
}

func (e *Entry[E]) entry() *Entry[E] { return e }

// Stream is the job's live event stream; a running job publishes its
// progress here.
func (e *Entry[E]) Stream() *obs.Stream[E] { return e.stream }

// Root is the root span of the job's trace.
func (e *Entry[E]) Root() *obs.Span { return e.trace.Root() }

// Record is satisfied by a pointer to any struct that embeds Entry[E].
type Record[T, E any] interface {
	*T
	entry() *Entry[E]
}

// Metrics are the lifecycle instruments the queue keeps current at each
// transition. New fills nil fields with unregistered instruments.
type Metrics struct {
	Submitted, Done, Failed, Cancelled *obs.Counter
	Queued, Running                    *obs.Gauge
}

// Kind is what one job kind brings to the queue.
type Kind[T, E any, P Record[T, E]] struct {
	// Workers sizes the worker pool, Cap bounds the FIFO, and Retention
	// bounds the terminal jobs kept queryable (at least 1).
	Workers, Cap, Retention int
	// Span names every job's trace root; Events caps how many events
	// each job's stream retains for late subscribers. A stream grows with
	// what its job published, so a job added done retains its one event.
	Span   string
	Events int
	// Full and Closed are the kind's errors for a full FIFO and a queue
	// that is shutting down.
	Full, Closed error
	// Run executes a running job on a worker and reports how it ended:
	// Done, Failed (with the error) or Cancelled. A running job becomes
	// terminal only when its Run returns, so Run may store its result on
	// the record, under the lock, before returning.
	Run func(ctx context.Context, job P) (Status, error)
	// Event builds the event that reports the job's current status. It is
	// published when the job starts and, as the final event, when it ends,
	// and it runs under the lock.
	Event func(job P) E
	// Finish runs under the lock in the critical section that makes a job
	// terminal, after its status is set and before its final event is
	// published.
	Finish func(job P)
	// Copy snapshots a record under the lock; the queue clears the
	// snapshot's private lifecycle fields.
	Copy    func(job P) T
	Metrics Metrics
}

// Queue is one job kind's table, FIFO and worker pool.
type Queue[T, E any, P Record[T, E]] struct {
	// Jobs is the queue's read and cancel side, which the kind embeds.
	Jobs[T, E, P]
	kind Kind[T, E, P]
	mu   *sync.Mutex
	// cond wakes workers on enqueue and shutdown.
	cond *sync.Cond
	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	// pending is the FIFO: a slice, so a cancelled entry frees its slot at
	// once. jobs is the table and order[head:] lists it in submission
	// order, with a nil hole (counted in holes) where a job was evicted
	// from behind an older live one. terminal counts the terminal jobs in
	// the table for retention.
	pending     []P
	jobs        map[string]P
	order       []P
	head, holes int
	terminal    int
	retention   int
}

// New starts kind.Workers workers draining a FIFO of at most kind.Cap
// jobs, all under mu. Call Shutdown to stop them.
func New[T, E any, P Record[T, E]](mu *sync.Mutex, kind Kind[T, E, P]) *Queue[T, E, P] {
	m := &kind.Metrics
	m.Submitted, m.Done = cmp.Or(m.Submitted, new(obs.Counter)), cmp.Or(m.Done, new(obs.Counter))
	m.Failed, m.Cancelled = cmp.Or(m.Failed, new(obs.Counter)), cmp.Or(m.Cancelled, new(obs.Counter))
	m.Queued, m.Running = cmp.Or(m.Queued, new(obs.Gauge)), cmp.Or(m.Running, new(obs.Gauge))
	ctx, stop := context.WithCancel(context.Background())
	q := &Queue[T, E, P]{
		kind:      kind,
		mu:        mu,
		cond:      sync.NewCond(mu),
		ctx:       ctx,
		stop:      stop,
		jobs:      make(map[string]P),
		retention: max(kind.Retention, 1),
	}
	q.Jobs = Jobs[T, E, P]{q}
	q.wg.Add(kind.Workers)
	for range kind.Workers {
		go q.worker()
	}
	return q
}

// Workers returns the worker-pool size.
func (q *Queue[T, E, P]) Workers() int { return q.kind.Workers }

// Cap returns the FIFO capacity.
func (q *Queue[T, E, P]) Cap() int { return q.kind.Cap }

// newID returns a random 128-bit hex job id.
func newID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return hex.EncodeToString(b[:])
}

// AddLocked registers a new job and queues it. The job gets a fresh ID
// unless it already has one (a job recovered under its original ID, which
// must not be in the table), and Created is stamped unless set. pastCap
// queues it even when the FIFO is full: recovered work is never dropped.
func (q *Queue[T, E, P]) AddLocked(job P, pastCap bool) error {
	if err := q.registerLocked(job, pastCap); err != nil {
		return err
	}
	q.enqueueLocked(job)
	return nil
}

// AddDoneLocked registers a job that is done on arrival (an answer served
// without running it): it is counted submitted and done and gets its final
// event, but it never queues and Kind.Finish does not run.
func (q *Queue[T, E, P]) AddDoneLocked(job P) error {
	if err := q.registerLocked(job, true); err != nil {
		return err
	}
	e := job.entry()
	q.resetLocked(e)
	e.Status = Done
	e.Started, e.Finished = e.Created, e.Created
	q.endLocked(job)
	return nil
}

// RequeueLocked queues a terminal job again under its ID, with a fresh
// context, stream and trace; the kind resets its own result fields.
func (q *Queue[T, E, P]) RequeueLocked(job P) error {
	switch {
	case q.ctx.Err() != nil:
		return q.kind.Closed
	case len(q.pending) >= q.kind.Cap:
		return q.kind.Full
	}
	q.terminal--
	q.kind.Metrics.Submitted.Inc()
	q.enqueueLocked(job)
	return nil
}

func (q *Queue[T, E, P]) registerLocked(job P, pastCap bool) error {
	e := job.entry()
	switch {
	case q.ctx.Err() != nil:
		return q.kind.Closed
	case !pastCap && len(q.pending) >= q.kind.Cap:
		return q.kind.Full
	case e.ID == "":
		e.ID = newID()
	case q.jobs[e.ID] != nil:
		return fmt.Errorf("jobqueue: duplicate job id %q", e.ID)
	}
	if e.Created.IsZero() {
		e.Created = time.Now()
	}
	q.jobs[e.ID] = job
	q.order = append(q.order, job)
	q.kind.Metrics.Submitted.Inc()
	return nil
}

// resetLocked gives the entry a fresh run: context, done channel, a
// stream retaining up to Kind.Events events, trace, and a cleared outcome.
func (q *Queue[T, E, P]) resetLocked(e *Entry[E]) {
	e.ctx, e.cancel = context.WithCancel(q.ctx)
	e.done = make(chan struct{})
	e.stream = obs.NewStream[E](q.kind.Events)
	e.trace = obs.NewTrace(e.ID, q.kind.Span)
	e.Error = ""
	e.Started, e.Finished = time.Time{}, time.Time{}
}

func (q *Queue[T, E, P]) enqueueLocked(job P) {
	e := job.entry()
	q.resetLocked(e)
	e.Status = Queued
	q.pending = append(q.pending, job)
	q.kind.Metrics.Queued.Add(1)
	q.cond.Signal()
}

// dequeueLocked removes the job from the FIFO if it is still there.
func (q *Queue[T, E, P]) dequeueLocked(job P) {
	for i, p := range q.pending {
		if p == job {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			return
		}
	}
}

// worker drains the FIFO until shutdown. Jobs still queued when shutdown
// begins are left for Shutdown's finalize loop.
func (q *Queue[T, E, P]) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && q.ctx.Err() == nil {
			q.cond.Wait()
		}
		if q.ctx.Err() != nil {
			q.mu.Unlock()
			return
		}
		job := q.pending[0]
		q.pending = q.pending[1:]
		e := job.entry()
		e.Status = Running
		e.Started = time.Now()
		e.trace.Root().Set("queue_wait_ms", float64(e.Started.Sub(e.Created).Microseconds())/1e3)
		q.kind.Metrics.Queued.Add(-1)
		q.kind.Metrics.Running.Add(1)
		ctx, stream, ev := e.ctx, e.stream, q.kind.Event(job)
		q.mu.Unlock()
		stream.Publish(ev)
		status, err := q.kind.Run(ctx, job)
		q.mu.Lock()
		q.finishLocked(job, status, err)
		q.mu.Unlock()
	}
}

// finishLocked moves a queued or running job to its terminal status; a job
// that is already terminal is left as it is, so each job finishes once.
func (q *Queue[T, E, P]) finishLocked(job P, status Status, err error) {
	e := job.entry()
	switch e.Status {
	case Queued:
		q.kind.Metrics.Queued.Add(-1)
	case Running:
		q.kind.Metrics.Running.Add(-1)
	default:
		return
	}
	e.Status = status
	e.Finished = time.Now()
	if err != nil {
		e.Error = err.Error()
	}
	q.kind.Finish(job)
	q.endLocked(job)
}

// endLocked closes a job that just became terminal: count it, end its
// trace, publish its final event and close the stream so watchers see
// end-of-stream, cancel and drop its context (a terminal job holds none
// until a requeue gives it a fresh one), wake its waiters, and apply
// retention. The stream's mutex is a leaf, so publishing under the lock
// cannot deadlock.
func (q *Queue[T, E, P]) endLocked(job P) {
	e := job.entry()
	switch e.Status {
	case Done:
		q.kind.Metrics.Done.Inc()
	case Failed:
		q.kind.Metrics.Failed.Inc()
	case Cancelled:
		q.kind.Metrics.Cancelled.Inc()
	}
	e.trace.Root().Set("status", string(e.Status))
	e.trace.End()
	e.stream.Publish(q.kind.Event(job))
	e.stream.Close()
	e.cancel()
	e.ctx, e.cancel = nil, nil
	close(e.done)
	q.terminal++
	q.evictLocked()
}

// evictLocked drops the oldest terminal jobs beyond the retention bound;
// queued and running jobs are never evicted. Evicting the oldest job
// advances head, evicting one from behind an older live job leaves a
// hole, and order is compacted once half of it is dead, so a finish costs
// amortized O(1) while the oldest job is terminal.
func (q *Queue[T, E, P]) evictLocked() {
	for i := q.head; q.terminal > q.retention && i < len(q.order); i++ {
		job := q.order[i]
		if job == nil || !job.entry().Status.Terminal() {
			continue
		}
		delete(q.jobs, job.entry().ID)
		q.order[i] = nil
		q.holes++
		q.terminal--
	}
	for q.head < len(q.order) && q.order[q.head] == nil {
		q.head++
		q.holes--
	}
	if q.head+q.holes > len(q.order)/2 {
		live := q.order[:0]
		for _, job := range q.order[q.head:] {
			if job != nil {
				live = append(live, job)
			}
		}
		clear(q.order[len(live):]) // drop the evicted records for the GC
		q.order, q.head, q.holes = live, 0, 0
	}
}

// SetRetention overrides the terminal-job retention bound (minimum 1).
func (q *Queue[T, E, P]) SetRetention(n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.retention = max(n, 1)
	q.evictLocked()
}

// LookupLocked returns the live record with the given id.
func (q *Queue[T, E, P]) LookupLocked(id string) (P, bool) {
	job, ok := q.jobs[id]
	return job, ok
}

// SnapshotLocked returns a copy of the record with its private lifecycle
// fields cleared.
func (q *Queue[T, E, P]) SnapshotLocked(job P) T {
	s := q.kind.Copy(job)
	e := P(&s).entry()
	e.ctx, e.cancel, e.done, e.stream, e.trace = nil, nil, nil, nil, nil
	return s
}

// Jobs is a queue's read and cancel side. A kind embeds it, which makes
// Get, List, Cancel, Wait, Watch, Events, Trace and Final the kind's own
// methods.
type Jobs[T, E any, P Record[T, E]] struct{ q *Queue[T, E, P] }

// Get returns a snapshot of the job with the given id.
func (j Jobs[T, E, P]) Get(id string) (snap T, ok bool) {
	q := j.q
	q.mu.Lock()
	defer q.mu.Unlock()
	if job, ok := q.jobs[id]; ok {
		return q.SnapshotLocked(job), true
	}
	return snap, false
}

// List returns snapshots of all jobs in submission order.
func (j Jobs[T, E, P]) List() []T {
	q := j.q
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]T, 0, len(q.jobs))
	for _, job := range q.order[q.head:] {
		if job != nil {
			out = append(out, q.SnapshotLocked(job))
		}
	}
	return out
}

// Cancel stops a queued or running job and returns its snapshot, or
// ok=false for an unknown id. A queued job leaves the FIFO and finishes at
// once, so its slot frees without waiting for a worker; a running job has
// its context cancelled and finishes when its Run returns. Cancelling a
// terminal job is a no-op.
func (j Jobs[T, E, P]) Cancel(id string) (snap T, ok bool) {
	q := j.q
	q.mu.Lock()
	defer q.mu.Unlock()
	job, ok := q.jobs[id]
	if !ok {
		return snap, false
	}
	switch e := job.entry(); e.Status {
	case Queued:
		q.dequeueLocked(job)
		q.finishLocked(job, Cancelled, nil)
	case Running:
		e.cancel()
	}
	return q.SnapshotLocked(job), true
}

// Wait blocks until the job is terminal or ctx expires, and returns the
// snapshot of the record it waited on (even if retention has evicted it
// since) with ctx's error in the second case.
func (j Jobs[T, E, P]) Wait(ctx context.Context, id string) (snap T, err error) {
	job, e, ok := j.live(id)
	if !ok {
		return snap, fmt.Errorf("%w %q", ErrUnknown, id)
	}
	select {
	case <-e.done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	j.q.mu.Lock()
	defer j.q.mu.Unlock()
	return j.q.SnapshotLocked(job), err
}

// Watch subscribes to a job's event stream: the retained history (oldest
// first), a channel of later events, and a cancel function the caller
// must invoke when done. The channel closes when the job reaches a
// terminal status (or on cancel); a terminal job returns its history and
// an already-closed channel.
func (j Jobs[T, E, P]) Watch(id string) ([]E, <-chan E, func(), bool) {
	_, e, ok := j.live(id)
	if !ok {
		return nil, nil, nil, false
	}
	hist, ch, cancel := e.stream.Subscribe(16)
	return hist, ch, cancel, true
}

// Events returns a job's retained event history, oldest first.
func (j Jobs[T, E, P]) Events(id string) ([]E, bool) {
	_, e, ok := j.live(id)
	if !ok {
		return nil, false
	}
	return e.stream.History(), true
}

// Trace snapshots a job's span tree; running spans report their duration
// so far.
func (j Jobs[T, E, P]) Trace(id string) (obs.SpanSnapshot, bool) {
	_, e, ok := j.live(id)
	if !ok {
		return obs.SpanSnapshot{}, false
	}
	return e.trace.Snapshot(), true
}

// live returns the job and a copy of its entry, whose done channel,
// stream and trace a requeue replaces, so they are read under the lock.
func (j Jobs[T, E, P]) live(id string) (job P, e Entry[E], ok bool) {
	q := j.q
	q.mu.Lock()
	defer q.mu.Unlock()
	if job, ok = q.jobs[id]; ok {
		e = *job.entry()
	}
	return job, e, ok
}

// Final returns a terminal job's final event, built by the same Kind.Event
// that published it; false while the job is not terminal or unknown.
func (j Jobs[T, E, P]) Final(id string) (ev E, ok bool) {
	q := j.q
	q.mu.Lock()
	defer q.mu.Unlock()
	if job, ok := q.jobs[id]; ok && job.entry().Status.Terminal() {
		return q.kind.Event(job), true
	}
	return ev, false
}

// Stats summarizes the lifecycle counters and the live queue gauges.
type Stats struct {
	Submitted uint64 `json:"submitted"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
}

// Stats reads the instruments; it takes no lock.
func (q *Queue[T, E, P]) Stats() Stats {
	m := &q.kind.Metrics
	return Stats{
		Submitted: uint64(m.Submitted.Value()),
		Queued:    int(m.Queued.Value()),
		Running:   int(m.Running.Value()),
		Done:      uint64(m.Done.Value()),
		Failed:    uint64(m.Failed.Value()),
		Cancelled: uint64(m.Cancelled.Value()),
	}
}

// Shutdown cancels every job and waits for the workers to drain, or for
// ctx to expire; then it finalizes, as cancelled, the jobs no worker
// picked up. Submissions fail once shutdown has begun.
func (q *Queue[T, E, P]) Shutdown(ctx context.Context) error {
	q.stop() // cancels every job context
	q.mu.Lock()
	q.cond.Broadcast() // wake idle workers so they observe the stop
	q.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return ctx.Err()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.pending = nil
	for _, job := range q.jobs {
		q.finishLocked(job, Cancelled, nil)
	}
	return nil
}
