package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/atlas"
	"mindmappings/internal/core"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/jobqueue"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/modelstore"
	"mindmappings/internal/obs"
	"mindmappings/internal/resilience"
	"mindmappings/internal/search"
	"mindmappings/internal/trainer"
	"mindmappings/internal/workload"

	_ "mindmappings/internal/timeloop" // register the reference cost-model backend
)

// JobStatus is the lifecycle state of a search job, shared with training
// jobs (jobqueue.Status).
type JobStatus = jobqueue.Status

const (
	JobQueued    = jobqueue.Queued
	JobRunning   = jobqueue.Running
	JobDone      = jobqueue.Done
	JobFailed    = jobqueue.Failed
	JobCancelled = jobqueue.Cancelled
)

// SearchRequest is the body of POST /v1/search: which problem to map, with
// which method, under what budget.
type SearchRequest struct {
	// Algo names any registered workload (GET /v1/models lists them, as
	// does `mindmappings algos`). Einsum instead supplies an inline
	// index-expression spec, e.g. "O[m,n] += A[m,k] * B[k,n]"; exactly one
	// of the two is required.
	Algo   string `json:"algo,omitempty"`
	Einsum string `json:"einsum,omitempty"`
	// The problem instance: Problem names a Table-1 problem, Shape gives
	// sizes in the algorithm's canonical dimension order, and Dims gives
	// them as a dimension-name → size map (exactly one of the three is
	// required).
	Problem string         `json:"problem,omitempty"`
	Shape   []int          `json:"shape,omitempty"`
	Dims    map[string]int `json:"dims,omitempty"`
	// Searcher selects the method: mm (default, requires Model), sa, ga,
	// rl, or random.
	Searcher string `json:"searcher,omitempty"`
	// Model names a surrogate for the mm searcher (ignored otherwise): a
	// store artifact ID, a file in the server's model directory, or "auto"
	// to resolve the best published artifact for the request's workload by
	// fingerprint. Required for mm.
	Model string `json:"model,omitempty"`
	// TrainOnMiss, valid only with Model "auto", trains and publishes a
	// surrogate through the training pipeline when the store has none for
	// the workload — the HTTP-only cold-start path. Workload and cost
	// model are taken from the search request; equivalent concurrent
	// misses share one training run. The search job waits for training,
	// so budget its client timeout accordingly; cancelling the search
	// stops only the wait — the (shared) training run keeps going and
	// stays visible under GET /v1/train.
	TrainOnMiss *trainer.Request `json:"train_on_miss,omitempty"`
	// CostModel selects the registered cost-model backend that evaluates
	// (and, for black-box searchers, drives) the search: "timeloop"
	// (default) or "roofline". Per-backend eval totals are the
	// costmodel_evals_total{backend} series on /metrics.
	CostModel string `json:"cost_model,omitempty"`
	// Evals caps cost-function evaluations; Time is a wall-clock budget as
	// a Go duration string ("30s"). At least one must be set.
	Evals int    `json:"evals,omitempty"`
	Time  string `json:"time,omitempty"`
	// Patience stops the run after this many evaluations without
	// improvement (0 = run to the budget).
	Patience int `json:"patience,omitempty"`
	// Objective is edp (default), ed2p, energy, or delay.
	Objective string `json:"objective,omitempty"`
	// Seed makes the search reproducible: jobs with equal requests and
	// seeds produce identical results when they start from the same point
	// (both cold, or both from the same atlas entry) and stop at their
	// evaluation budget. The atlas can change the start: a stored shape is
	// answered without a search, and an mm job for an unseen shape
	// warm-starts from the nearest solved neighbour, which depends on the
	// entries that exist when the job is planned (Result.Source reports
	// which). A wall-clock budget or deadline stops at a timing-dependent
	// point.
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMS is an anytime deadline in milliseconds: when it expires
	// before the budget does, the job completes with its best-so-far
	// mapping and "degraded": true instead of failing (DESIGN.md §9). The
	// server clamps it to its -maxjobtime, which also applies when no
	// timeout is requested. 0 means no client deadline; above
	// 9223372036854 (about 292 years, the range of a time.Duration) the
	// request is rejected.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// TrajectoryPoint is one best-so-far sample of a job's search trajectory.
type TrajectoryPoint struct {
	Eval      int     `json:"eval"`
	ElapsedMS float64 `json:"elapsed_ms"`
	BestEDP   float64 `json:"best_edp"`
}

// JobResult is the outcome of a finished (or cancelled-with-progress) job.
type JobResult struct {
	Method    string  `json:"method"`
	BestEDP   float64 `json:"best_edp"`
	Evals     int     `json:"evals"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Degraded marks an anytime result: the job's deadline expired before
	// its budget, so this is the best mapping found in the time allowed —
	// valid, just not the full-budget answer.
	Degraded bool `json:"degraded,omitempty"`
	// Source marks atlas involvement: "atlas" when the result is a stored
	// mapping served without running a search, "atlas-neighbor" when the
	// search was warm-started from the nearest solved neighbor. Empty for
	// a plain cold search.
	Source   string `json:"source,omitempty"`
	Mapping  string `json:"mapping,omitempty"`
	LoopNest string `json:"loop_nest,omitempty"`
	// Trajectory is rendered into each snapshot from the job's event
	// history, the one record of it (Job.trajectory); the stored result
	// holds none.
	Trajectory []TrajectoryPoint `json:"trajectory,omitempty"`
	// Convergence reduces the trajectory to search-quality metrics:
	// sample efficiency (evals to within 10%/1% of the final best),
	// improvement-rate EWMA, and trailing-stall accounting. Absent for
	// atlas-served results (no search ran).
	Convergence *search.Convergence `json:"convergence,omitempty"`
}

// ProgressEvent is one live telemetry sample from a search job, published
// to Watch subscribers (and streamed over GET /v1/jobs/{id}/events) at
// every recorded trajectory sample. The final event carries the terminal
// status; afterwards the stream closes.
type ProgressEvent struct {
	Status      JobStatus `json:"status"`
	Eval        int       `json:"eval,omitempty"`
	BestEDP     float64   `json:"best_edp,omitempty"`
	ElapsedMS   float64   `json:"elapsed_ms,omitempty"`
	EvalsPerSec float64   `json:"evals_per_sec,omitempty"`
	Improved    bool      `json:"improved,omitempty"`
	Error       string    `json:"error,omitempty"`
}

// Job is the service-side record of one search request: the lifecycle
// fields (id, status, error, timestamps) come from the embedded
// jobqueue.Entry. Snapshots returned by the manager are copies; only the
// manager mutates the live record.
type Job struct {
	jobqueue.Entry[ProgressEvent]
	Tenant  string        `json:"tenant,omitempty"`
	Request SearchRequest `json:"request"`
	Result  *JobResult    `json:"result,omitempty"`
	// CheckpointEval is the eval count of the job's latest checkpoint (0
	// until the first snapshot), set where the checkpoint is stored;
	// Resumable marks a terminal job that POST /v1/jobs/{id}/resume can
	// continue.
	CheckpointEval int  `json:"checkpoint_eval,omitempty"`
	Resumable      bool `json:"resumable,omitempty"`

	// admitted marks a job holding an admission-controller slot, released
	// exactly once at finish; checkpoint is the latest searcher snapshot
	// (also journaled when the journal is enabled), dropped when the job
	// finishes done. A run that starts with a checkpoint continues the
	// search from it instead of starting fresh.
	admitted   bool
	checkpoint *search.Checkpoint
	// plan is the resolved request: pinned at submit, or set under jm.mu
	// on the first run of a job recovered from the journal. Only a run
	// reads it, so a job that finishes done drops it and an atlas-served
	// job never holds one.
	plan *plan
	// tin is the tenant's instrument set, resolved once at submission
	// (outside jm.mu) so the finish path under jm.mu only does atomic adds.
	tin *tenantInstruments
}

// event is the job's current-status ProgressEvent: the running event, the
// final event published when the job ends, and the terminal frame an SSE
// stream re-synthesizes all come from here.
func (j *Job) event() ProgressEvent {
	ev := ProgressEvent{Status: j.Status, Error: j.Error}
	if r := j.Result; r != nil {
		ev.Eval = r.Evals
		ev.BestEDP = r.BestEDP
		ev.ElapsedMS = r.ElapsedMS
		if r.ElapsedMS > 0 {
			ev.EvalsPerSec = float64(r.Evals) / (r.ElapsedMS / 1e3)
		}
	}
	return ev
}

// resumable reports whether the job (under jm.mu) can be resumed: it is
// terminal short of success with a checkpoint to continue from, or it was
// cancelled before running at all (a from-scratch re-run).
func (j *Job) resumable() bool {
	if !j.Status.Terminal() || j.Status == JobDone {
		return false
	}
	return j.checkpoint != nil || j.Status == JobCancelled
}

// JobManager runs search jobs on a jobqueue.Queue (the FIFO, the worker
// pool and the job table) and adds what is particular to search: request
// validation, admission, the atlas, the journal and per-tenant accounting.
// Get, List, Cancel, Wait, Watch, Events, Trace and Final come from the
// embedded jobqueue.Jobs; cancelling a queued job frees its queue and
// admission slots at once. All jobs share one ModelRegistry (surrogates
// loaded once); every job pays its own cost-model evaluations.
type JobManager struct {
	jobqueue.Jobs[Job, ProgressEvent, *Job]

	registry *ModelRegistry

	// mu guards the queue's table and every field below that says so; the
	// queue's finish hook runs under it.
	mu sync.Mutex
	q  *jobqueue.Queue[Job, ProgressEvent, *Job]
	// draining, set by BeginDrain, rejects new submissions and tells the
	// finish hook to leave journal records in place so a restart resumes
	// the drained jobs.
	draining bool
	// w is the setup-time wiring, guarded by mu and read through wired().
	w wiring

	// reg is the manager's metric registry and flight its operational-event
	// ring (job lifecycle, admission rejections, shed decisions, journal
	// errors, atlas lookup faults), both created with it and adopted by
	// NewServer for /metrics and /debug/flightrecorder; met holds the
	// instruments registered in reg. All three are fixed at construction,
	// so every path reads them lock-free; Record is a leaf mutex, safe to
	// call under mu.
	reg    *obs.Registry
	met    jobMetrics
	flight *obs.FlightRecorder

	// Per-tenant instrument sets, registered on first sight of a tenant
	// and bounded at obs.DefaultMaxCardinality; later tenants share
	// tenantOverflow. Guarded by tenantMu, a leaf below nothing: tenantFor
	// must never run under jm.mu (registration takes the registry lock, and
	// exposition callbacks take jm.mu under it).
	tenantMu       sync.Mutex
	tenants        map[string]*tenantInstruments
	tenantOverflow *tenantInstruments

	// counters holds one shared paid-eval counter per cost-model backend
	// (charged by the search tracker, exposed as costmodel_evals_total).
	// Guarded by countersMu, not mu: jobs read them on the hot path.
	countersMu sync.Mutex
	counters   map[string]*costmodel.Counter

	// answers holds the prepared exact-hit answer per atlas key (string →
	// *atlasAnswer, see atlasAnswerFor): at most one per key the atlas has
	// answered, replaced when the key's best entry or the problem name
	// changes.
	answers sync.Map
}

// wiring is what the Enable*/Set* methods attach at setup, before traffic.
type wiring struct {
	// store and trainPipe (EnableTraining) activate "model":"auto"
	// fingerprint resolution and train-on-miss.
	store     *modelstore.Store
	trainPipe *trainer.Pipeline
	// Resilience: per-tenant admission control (EnableAdmission), the
	// crash-safe job journal (EnableJournal), deterministic fault injection
	// on the eval path (SetFaults), and the anytime-deadline ceiling
	// (SetMaxJobTime).
	admission       *resilience.Admission
	journal         *resilience.Journal
	faults          *resilience.Faults
	maxJobTime      time.Duration
	checkpointEvery int
	// healthFn (SetHealth) feeds the SLO tracker's overall score into Load
	// so admission thresholds can shed on burn rate instead of raw
	// heap/queue numbers; it is invoked outside mu.
	healthFn func() float64
	// The atlas (EnableAtlas): exact-key hits are served from the store
	// without running a search job, mm misses warm-start from the nearest
	// solved neighbor, and completed jobs write back unless atlasRO.
	atlasStore  *atlas.Atlas
	atlasRO     bool
	atlasSource string
}

// wired returns a copy of the setup-time wiring. Never call it while
// holding jm.mu — read jm.w directly there.
func (jm *JobManager) wired() wiring {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.w
}

// jobMetrics is the manager's instrument set. Every lifecycle and atlas
// outcome is one counter, bumped where the event happens; /metrics, the
// SLO tracker and /v1/status all read these same values.
type jobMetrics struct {
	submitted, done, failed, cancelled, degraded, recovered, journalErrs *obs.Counter
	// queued and running are the live queue gauges, kept by the queue.
	queued, running *obs.Gauge
	// Atlas read outcomes (exact hit, neighbor warm start, cold) and
	// solutions published back.
	atlasHits, atlasNeighbors, atlasCold, atlasWritebacks *obs.Counter

	queueWait   *obs.Histogram
	run         *obs.Histogram
	atlasLookup *obs.Histogram
	// firstEval observes time from job start to the first progress sample —
	// the time-to-first-eval latency the SLO tracker's objective reads.
	firstEval *obs.Histogram
}

// evalSecondsBuckets spans the analytical backends' ~100ns-per-eval range
// up to emulated-latency milliseconds.
var evalSecondsBuckets = obs.ExpBuckets(100e-9, 4, 14)

var evalSecondsHelp = fmt.Sprintf("Sampled cost-model evaluation latency (1-in-%d sampling).", evalTimingSample)

// registerMetrics builds the manager's registry: queue-wait and run
// histograms, lifecycle and atlas counters, and live queue, admission and
// atlas gauges. Per-backend, per-model and per-tenant series register
// lazily as jobs first need them.
func (jm *JobManager) registerMetrics() {
	reg := obs.NewRegistry()
	jm.reg = reg
	jm.met = jobMetrics{
		submitted:   reg.Counter("search_jobs_submitted_total", "Search jobs accepted by POST /v1/search."),
		done:        reg.Counter("search_jobs_done_total", "Search jobs finished successfully."),
		failed:      reg.Counter("search_jobs_failed_total", "Search jobs that ended in an error."),
		cancelled:   reg.Counter("search_jobs_cancelled_total", "Search jobs cancelled by clients or shutdown."),
		degraded:    reg.Counter("search_jobs_degraded_total", "Search jobs completed degraded at their anytime deadline."),
		recovered:   reg.Counter("search_jobs_recovered_total", "Search jobs recovered from the journal at startup."),
		journalErrs: reg.Counter("search_job_journal_errors_total", "Journal writes that failed even after bounded retry."),
		atlasHits: reg.Counter("atlas_hits_total",
			"Search requests answered from the atlas without running a search job."),
		atlasNeighbors: reg.Counter("atlas_neighbor_total",
			"Search jobs warm-started from a nearest-neighbor atlas mapping."),
		atlasCold: reg.Counter("atlas_cold_total",
			"Search jobs run with no atlas assist (no exact hit, no neighbor)."),
		atlasWritebacks: reg.Counter("atlas_writebacks_total",
			"Completed search jobs whose solutions were published into the atlas."),
		queueWait: reg.Histogram("search_job_queue_seconds",
			"Time search jobs wait in the queue before a worker starts them.", nil),
		run: reg.Histogram("search_job_run_seconds",
			"Wall-clock run time of search jobs, start to finish.", obs.ExpBuckets(1e-3, 4, 14)),
		atlasLookup: reg.Histogram("atlas_lookup_seconds",
			"Latency of atlas exact-hit lookups on the submit path.",
			obs.ExpBuckets(1e-6, 4, 10)),
		firstEval: reg.Histogram("search_job_first_eval_seconds",
			"Time from job start to its first progress sample (time-to-first-eval).",
			nil),
	}
	jm.met.queued = reg.Gauge("search_jobs_queued", "Search jobs waiting for a worker.")
	jm.met.running = reg.Gauge("search_jobs_running", "Search jobs currently executing.")
	reg.GaugeFunc("search_job_workers",
		"Size of the search worker pool.",
		func() float64 { return float64(jm.Workers()) })
	// Admission and atlas gauges read through wired(), so they report
	// 0 until EnableAdmission or EnableAtlas installs the component.
	admStats := func() resilience.AdmissionStats {
		if a := jm.wired().admission; a != nil {
			return a.Stats()
		}
		return resilience.AdmissionStats{}
	}
	reg.CounterFunc("admission_admitted_total",
		"Requests admitted by the per-tenant admission controller.",
		func() float64 { return float64(admStats().Admitted) })
	reg.CounterFunc("admission_rejected_total",
		"Requests rejected by per-tenant quotas (rate or concurrency).",
		func() float64 { s := admStats(); return float64(s.RejectedRate + s.RejectedConc) })
	reg.CounterFunc("admission_shed_total",
		"Requests shed under overload (queue depth or SLO health).",
		func() float64 { return float64(admStats().Shed) })
	reg.GaugeFunc("admission_in_flight",
		"Admission-controller concurrency slots currently held.",
		func() float64 { return float64(admStats().InFlight) })
	atlasStats := func() atlas.Stats {
		if at := jm.wired().atlasStore; at != nil {
			return at.Stats()
		}
		return atlas.Stats{}
	}
	reg.GaugeFunc("atlas_entries",
		"Committed mapping entries in the attached atlas.",
		func() float64 { return float64(atlasStats().Entries) })
	reg.GaugeFunc("atlas_corrupt_manifests",
		"Atlas manifests and log tails skipped at open as torn, unreadable or misnamed (reset by GC).",
		func() float64 { return float64(atlasStats().Corrupt) })
}

// NewJobManager starts workers goroutines (runtime.NumCPU() when workers
// <= 0) draining a queue of at most queueCap pending jobs (64 when <= 0),
// with its metric registry already populated (NewServer exposes it). Call
// Shutdown to stop the pool. The *EvalCache argument is ignored.
func NewJobManager(registry *ModelRegistry, _ *EvalCache, workers, queueCap int) *JobManager {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if queueCap <= 0 {
		queueCap = 64
	}
	jm := &JobManager{
		registry: registry,
		flight:   obs.NewFlightRecorder(0),
		tenants:  make(map[string]*tenantInstruments),
		counters: make(map[string]*costmodel.Counter),
	}
	jm.registerMetrics()
	m := &jm.met
	// A job's stream keeps every event it published, uncapped: a search
	// publishes one per trajectory sample, and its trajectory rule
	// (improvements plus ⌊log2 evals⌋+1 heartbeats, search.Sample) bounds
	// those, so a 300-eval job retains ~17 events (about 1.8 KB).
	jm.q = jobqueue.New(&jm.mu, jobqueue.Kind[Job, ProgressEvent, *Job]{
		Workers:   workers,
		Cap:       queueCap,
		Retention: DefaultJobRetention,
		Span:      "search-job",
		Events:    math.MaxInt,
		Full:      ErrQueueFull,
		Closed:    errShuttingDown,
		Run:       jm.run,
		Event:     (*Job).event,
		Finish:    jm.finish,
		Copy:      copyJob,
		Metrics: jobqueue.Metrics{Submitted: m.submitted, Done: m.done, Failed: m.failed,
			Cancelled: m.cancelled, Queued: m.queued, Running: m.running},
	})
	jm.Jobs = jm.q.Jobs
	return jm
}

// EnableTraining attaches the versioned artifact store and the training
// pipeline, activating "model":"auto" resolution (best published artifact
// for the request's workload fingerprint) and train_on_miss.
func (jm *JobManager) EnableTraining(store *modelstore.Store, tp *trainer.Pipeline) {
	jm.mu.Lock()
	jm.w.store = store
	jm.w.trainPipe = tp
	jm.mu.Unlock()
}

// EnableAtlas attaches the precomputed mapping atlas: requests whose
// exact identity (workload, shape, arch, cost model, objective) has a
// stored solution are answered immediately — no search job runs, and
// admission control and the queue are bypassed entirely, since a lookup
// consumes none of the capacity those protect. Misses on the mm searcher
// are warm-started from the nearest same-family neighbor, and — unless
// readonly — every successfully completed search job publishes its
// solution back, so the atlas self-populates from live traffic. Call at
// setup, before traffic.
func (jm *JobManager) EnableAtlas(a *atlas.Atlas, readonly bool) {
	jm.mu.Lock()
	jm.w.atlasStore = a
	jm.w.atlasRO = readonly
	if jm.w.atlasSource == "" {
		jm.w.atlasSource = "serve"
	}
	jm.mu.Unlock()
}

// SetAtlasSource overrides the provenance stamped on atlas write-back
// entries ("serve" by default; the offline sweep command stamps "build").
func (jm *JobManager) SetAtlasSource(source string) {
	jm.mu.Lock()
	jm.w.atlasSource = source
	jm.mu.Unlock()
}

// SetBatching does nothing: mm jobs query their registry surrogate
// directly. It remains only for callers built against the removed
// cross-request batcher; its parameter is the type infer.Config aliases,
// so those callers compile without this package importing infer.
//
// Deprecated: there is no batcher to configure.
func (jm *JobManager) SetBatching(struct {
	Window   time.Duration
	MaxBatch int
}) {
}

// EnableAdmission installs a per-tenant admission controller wired to the
// manager's live overload signals (queue depth, SLO health) and its
// capacity-based Retry-After estimate. Call at setup, before traffic.
func (jm *JobManager) EnableAdmission(cfg resilience.AdmissionConfig) *resilience.Admission {
	a := resilience.NewAdmission(cfg, jm.Load, resilience.WithRetryHint(jm.RetryAfterHint))
	jm.mu.Lock()
	jm.w.admission = a
	jm.mu.Unlock()
	return a
}

// Load snapshots the overload signals admission decisions shed on.
func (jm *JobManager) Load() resilience.Load {
	st := jm.Stats()
	l := resilience.Load{QueueDepth: st.Queued, QueueCap: jm.QueueCap(), Health: 1}
	if fn := jm.wired().healthFn; fn != nil {
		l.Health = fn()
	}
	return l
}

// SetHealth wires the SLO tracker's overall score into Load, making
// Thresholds.MinHealth meaningful: admission sheds when the error budget
// is burning, whatever resource is causing it. fn must be safe for
// concurrent use and must not call back into the manager's public API
// beyond lock-free reads. Call at setup.
func (jm *JobManager) SetHealth(fn func() float64) {
	jm.mu.Lock()
	jm.w.healthFn = fn
	jm.mu.Unlock()
}

// RetryAfterHint estimates how long until capacity frees up — in-flight
// jobs over the worker pool, scaled by the observed median run time —
// clamped to [1s, 30s]. It backs the Retry-After header on queue-full and
// load-shed rejections, so clients back off proportionally to the actual
// backlog instead of a constant.
func (jm *JobManager) RetryAfterHint() time.Duration {
	st := jm.Stats()
	inFlight := st.Queued + st.Running
	if inFlight == 0 {
		return time.Second
	}
	p50 := 1.0
	if q := jm.met.run.Quantile(0.5); q > 0 && !math.IsNaN(q) {
		p50 = q
	}
	est := time.Duration(float64(inFlight) / float64(jm.Workers()) * p50 * float64(time.Second))
	if est < time.Second {
		return time.Second
	}
	if est > 30*time.Second {
		return 30 * time.Second
	}
	return est
}

// SetMaxJobTime installs the server-side anytime-deadline ceiling: every
// job runs under min(its timeout_ms, d), completing degraded-but-valid at
// expiry. 0 disables the ceiling.
func (jm *JobManager) SetMaxJobTime(d time.Duration) {
	jm.mu.Lock()
	jm.w.maxJobTime = d
	jm.mu.Unlock()
}

// SetCheckpointInterval overrides how many evaluations elapse between
// searcher checkpoints (search.DefaultCheckpointEvery when 0).
func (jm *JobManager) SetCheckpointInterval(evals int) {
	jm.mu.Lock()
	jm.w.checkpointEvery = evals
	jm.mu.Unlock()
}

// SetFaults arms deterministic fault injection on every job's evaluation
// path: each evaluation draws site "eval" faults inside
// resilience.DefaultRetry (see jobEvaluator), so injected errors and
// latency spikes exercise the retry machinery the way real transient
// faults would. Nil disarms.
func (jm *JobManager) SetFaults(f *resilience.Faults) {
	jm.mu.Lock()
	jm.w.faults = f
	jm.mu.Unlock()
}

// journalRecord is the on-disk form of a non-terminal job: enough to
// reconstruct and resume it in a fresh process. Terminal jobs have no
// record (deleted at finish), except during drain, when records are left
// behind deliberately so the next process picks the work back up.
type journalRecord struct {
	ID         string             `json:"id"`
	Tenant     string             `json:"tenant,omitempty"`
	Status     JobStatus          `json:"status"`
	Request    SearchRequest      `json:"request"`
	Created    time.Time          `json:"created"`
	Checkpoint *search.Checkpoint `json:"checkpoint,omitempty"`
}

// journalPut writes a job's journal record to j (nil: no journal),
// counting (but not failing on) errors that survive the journal's bounded
// retry: the job keeps running, only its crash-recovery point goes stale.
// The job's identity and request never change after submission, so they
// are read without the lock.
//
// A queued record is written under jm.mu in the critical section that
// enqueues the job. Workers dequeue under jm.mu, so the job cannot start,
// let alone finish and delete its record, before the record exists.
func (jm *JobManager) journalPut(j *resilience.Journal, job *Job, status JobStatus, ck *search.Checkpoint) {
	if j == nil {
		return
	}
	rec := journalRecord{ID: job.ID, Tenant: job.Tenant, Status: status, Request: job.Request, Created: job.Created, Checkpoint: ck}
	if err := j.Put(job.ID, rec); err != nil {
		jm.met.journalErrs.Inc()
		jm.flight.Record(obs.SevError, "journal.error", err.Error(),
			map[string]string{"id": job.ID, "op": "put"})
	}
}

// EnableJournal attaches the crash-safe job journal and recovers every
// journaled job left by the previous process: each one is re-enqueued
// under its original ID, resuming from its last checkpoint when it has
// one (queued jobs, and jobs killed before their first snapshot, restart
// from scratch). Returns how many jobs were recovered. Call at setup,
// before serving traffic; recovered jobs bypass admission control — they
// were admitted by the previous process.
func (jm *JobManager) EnableJournal(j *resilience.Journal) (int, error) {
	jm.mu.Lock()
	jm.w.journal = j
	jm.mu.Unlock()
	ids, err := j.List()
	if err != nil {
		return 0, err
	}
	recovered := 0
	for _, id := range ids {
		var rec journalRecord
		if err := j.Get(id, &rec); err != nil {
			continue // torn or foreign record: left in place for inspection
		}
		if rec.ID == "" {
			rec.ID = id
		}
		if rec.Status.Terminal() {
			_ = j.Delete(id) // stale terminal record: nothing to recover
			continue
		}
		job := &Job{
			Tenant:     rec.Tenant,
			Request:    rec.Request,
			checkpoint: rec.Checkpoint,
			tin:        jm.tenantFor(rec.Tenant),
		}
		job.ID, job.Created = rec.ID, rec.Created
		if rec.Checkpoint != nil {
			job.CheckpointEval = rec.Checkpoint.Eval
		}
		jm.mu.Lock()
		err := jm.q.AddLocked(job, true)
		jm.mu.Unlock()
		if err != nil {
			continue // already known, or shutting down
		}
		jm.met.recovered.Inc()
		job.tin.accepted()
		recovered++
	}
	return recovered, nil
}

// Resume re-enqueues a terminal, resumable job under its original ID: a
// fresh context, stream, and trace, with the search continuing from the
// job's last checkpoint (from scratch when it never reached one). Done
// jobs are complete and cannot be resumed.
func (jm *JobManager) Resume(id string) (Job, error) {
	jm.mu.Lock()
	job, ok := jm.q.LookupLocked(id)
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("service: %w %q", jobqueue.ErrUnknown, id)
	case jm.draining:
		err = errShuttingDown
	case !job.resumable():
		err = fmt.Errorf("service: job %s is %s and cannot be resumed", id, job.Status)
	default:
		err = jm.q.RequeueLocked(job)
	}
	if err != nil {
		jm.mu.Unlock()
		return Job{}, err
	}
	job.Result = nil
	snap := jm.q.SnapshotLocked(job)
	jm.journalPut(jm.w.journal, job, JobQueued, job.checkpoint)
	jm.mu.Unlock()
	job.tin.accepted()
	jm.flight.Record(obs.SevInfo, "job.resume", "search job re-enqueued from its checkpoint",
		map[string]string{"id": snap.ID, "tenant": tenantLabel(snap.Tenant)})
	return snap, nil
}

// BeginDrain flips the manager into drain mode: new submissions and
// resumes are refused (and /readyz reports 503 through Draining), and
// terminal jobs keep their journal records so the next process resumes
// them. The manager keeps executing already-accepted work until Drain or
// Shutdown.
func (jm *JobManager) BeginDrain() {
	jm.mu.Lock()
	jm.draining = true
	jm.mu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (jm *JobManager) Draining() bool {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.draining
}

// Drain gracefully stops the manager for shutdown: it stops admissions
// and shuts the queue down, which cancels every non-terminal job — running
// searchers observe the cancel within one iteration and emit a final
// boundary checkpoint — and waits for them to finalize. Because drain
// mode leaves journal records in place, a subsequent EnableJournal in a
// new process resumes the drained jobs from those checkpoints; SIGTERM
// therefore suspends in-flight work instead of discarding it.
func (jm *JobManager) Drain(ctx context.Context) error {
	jm.BeginDrain()
	return jm.Shutdown(ctx)
}

// ErrQueueFull is returned by Submit when the pending queue is at
// capacity; HTTP maps it to 503 so clients can back off and retry.
var ErrQueueFull = fmt.Errorf("service: job %w", jobqueue.ErrFull)

var errShuttingDown = fmt.Errorf("service: %w", jobqueue.ErrClosed)

// plan is a SearchRequest resolved once: the workload, the problem
// instance, the accelerator, the objective and budget, the searcher and
// cost model with their defaults applied, and the atlas coordinates
// derived from them. Every step after submit — the atlas exact hit, the
// neighbor warm start, the search and the write-back — reads these from
// the plan instead of deriving them from the request again.
type plan struct {
	algo      *loopnest.Algorithm
	prob      loopnest.Problem
	arch      arch.Spec
	obj       search.Objective
	budget    search.Budget
	searcher  string // lower-cased; "mm" when the request left it empty
	costModel string // the backend name; never empty
	// timeout is the request's timeout_ms; 0 when it set none.
	timeout time.Duration
	// algoFP and archFP stamp atlas entries and match "auto" models; key
	// and family are the plan's atlas.Key.
	algoFP, archFP string
	key, family    string
}

// blackBox maps each black-box searcher's lower-cased name to its method:
// the paper's baselines, RL at width 64. mm, the default, is built per
// job around a registry surrogate (searcher).
var blackBox = func() map[string]search.Searcher {
	m := map[string]search.Searcher{}
	for _, s := range core.Baselines(64) {
		m[strings.ToLower(s.Name())] = s
	}
	return m
}()

// resolve checks the request and builds its plan; it is the one place a
// request is interpreted. A problem its algorithm cannot build (an unknown
// Table-1 name, a wrong-length shape, a bad dims map) fails here, so
// submit answers 400 before taking an admission slot or a queue slot.
func (req *SearchRequest) resolve() (*plan, error) {
	algo, err := workload.Resolve(req.Algo, req.Einsum)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	sources := 0
	if req.Problem != "" {
		sources++
	}
	if len(req.Shape) > 0 {
		sources++
	}
	if len(req.Dims) > 0 {
		sources++
	}
	if sources != 1 {
		return nil, fmt.Errorf("service: exactly one of problem, shape, or dims is required (algorithm %s has dims %s)",
			algo.Name, strings.Join(algo.DimNames, ","))
	}
	obj, err := search.ParseObjective(req.Objective)
	if err != nil {
		return nil, err
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("service: negative timeout_ms %d", req.TimeoutMS)
	}
	if int64(req.TimeoutMS) > maxTimeoutMS {
		return nil, fmt.Errorf("service: timeout_ms %d exceeds the longest deadline, %d", req.TimeoutMS, maxTimeoutMS)
	}
	if !costmodel.Registered(req.CostModel) {
		return nil, fmt.Errorf("service: unknown cost model %q (registered: %s)",
			req.CostModel, strings.Join(costmodel.Names(), ", "))
	}
	budget, err := req.budget()
	if err != nil {
		return nil, err
	}
	name := strings.ToLower(req.Searcher)
	if name == "" {
		name = "mm"
	}
	if _, ok := blackBox[name]; !ok {
		if name != "mm" {
			return nil, fmt.Errorf("service: unknown searcher %q (want mm, sa, ga, rl, random)", req.Searcher)
		}
		if req.Model == "" {
			return nil, errors.New("service: the mm searcher needs a model (an artifact ID, a file name, or \"auto\") or pick sa/ga/rl/random")
		}
		if err := validName(req.Model); err != nil {
			return nil, err
		}
	}
	if req.TrainOnMiss != nil {
		if req.Model != "auto" {
			return nil, errors.New("service: train_on_miss requires \"model\": \"auto\"")
		}
		treq := req.trainRequest()
		if err := treq.Validate(); err != nil {
			return nil, fmt.Errorf("service: train_on_miss: %w", err)
		}
	}
	prob, err := req.resolveProblem(algo)
	if err != nil {
		return nil, err
	}
	p := &plan{algo: algo, prob: prob, arch: arch.Default(len(algo.Tensors) - 1), obj: obj, budget: budget,
		searcher: name, costModel: req.CostModel,
		timeout: time.Duration(req.TimeoutMS) * time.Millisecond, algoFP: algo.Fingerprint()}
	if p.costModel == "" {
		p.costModel = costmodel.DefaultBackend
	}
	p.archFP = modelstore.ArchFingerprint(p.arch)
	p.key, p.family = atlas.Key(p.algoFP, p.archFP, p.costModel, obj.String(), prob.Shape)
	return p, nil
}

// maxTimeoutMS is the largest timeout_ms a time.Duration holds.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// Validate checks a request without running it.
func (req *SearchRequest) Validate() error {
	_, err := req.resolve()
	return err
}

// trainRequest synthesizes the pipeline request for a train-on-miss: the
// workload and cost model come from the search request (the surrogate must
// approximate the f the search is scored against), the recipe from the
// TrainOnMiss body, and warm-starting defaults to "auto".
func (req *SearchRequest) trainRequest() trainer.Request {
	treq := *req.TrainOnMiss
	treq.Algo = req.Algo
	treq.Einsum = req.Einsum
	treq.CostModel = req.CostModel
	if treq.Warm == "" {
		treq.Warm = "auto"
	}
	return treq
}

// budget converts the request's limits into a search.Budget.
func (req *SearchRequest) budget() (search.Budget, error) {
	b := search.Budget{MaxEvals: req.Evals, Patience: req.Patience}
	if req.Time != "" {
		d, err := time.ParseDuration(req.Time)
		if err != nil {
			return b, fmt.Errorf("service: bad time budget: %w", err)
		}
		b.MaxTime = d
	}
	if b.MaxEvals <= 0 && b.MaxTime <= 0 {
		return b, errors.New("service: a budget needs evals or time")
	}
	if b.MaxEvals < 0 || b.MaxTime < 0 || b.Patience < 0 {
		return b, fmt.Errorf("service: negative budget")
	}
	return b, nil
}

// resolveProblem builds the requested problem instance of algo: a Table-1
// name, canonical-order sizes, or a dimension-name → size map. The
// algorithm's own constructors do the validation, so any registered or
// inline workload works without per-algorithm code.
func (req *SearchRequest) resolveProblem(algo *loopnest.Algorithm) (loopnest.Problem, error) {
	switch {
	case req.Problem != "":
		p, err := loopnest.Table1Problem(req.Problem, algo.Name)
		if err != nil {
			return loopnest.Problem{}, fmt.Errorf("service: %w", err)
		}
		return p, nil
	case len(req.Shape) > 0:
		if len(req.Shape) != algo.NumDims() {
			return loopnest.Problem{}, fmt.Errorf("service: %s shape needs %d sizes in order %s, got %d",
				algo.Name, algo.NumDims(), strings.Join(algo.DimNames, ","), len(req.Shape))
		}
		return algo.NewProblem("custom", req.Shape)
	default:
		return algo.ProblemFromDims("custom", req.Dims)
	}
}

// AdmissionError is returned by Submit when the admission controller
// rejects the request; it carries the HTTP status (429 quota / 503 shed)
// and Retry-After hint the transport should relay.
type AdmissionError struct {
	Decision resilience.Decision
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("service: request rejected: %s", e.Decision.Reason)
}

// Submit validates and enqueues a job for the anonymous tenant. The call
// never blocks: a full queue returns ErrQueueFull.
func (jm *JobManager) Submit(req SearchRequest) (Job, error) {
	return jm.SubmitAs("", req)
}

// SubmitAs is Submit on behalf of a tenant (the X-Tenant header; "" is
// the anonymous tenant). With admission control enabled the tenant's
// token bucket and concurrency cap are charged first — the cheapest
// possible rejection point — and the concurrency slot is held until the
// job reaches a terminal state.
func (jm *JobManager) SubmitAs(tenant string, req SearchRequest) (Job, error) {
	p, err := req.resolve()
	if err != nil {
		return Job{}, err
	}
	ti := jm.tenantFor(tenant)
	// Atlas exact-hit check, before admission: a stored answer consumes no
	// worker or queue slot, so atlas hits bypass quota and queue entirely.
	if at := jm.wired().atlasStore; at != nil {
		start := time.Now()
		job, served := jm.tryAtlasServe(at, tenant, ti, req, p)
		jm.met.atlasLookup.Observe(time.Since(start).Seconds())
		if served {
			return job, nil
		}
	}
	adm := jm.wired().admission
	admitted := false
	if adm != nil {
		d := adm.Admit(tenant)
		if !d.OK {
			ti.rejected(d.Code)
			kind, sev := "admission.reject", obs.SevWarn
			if d.Code == 503 {
				kind = "admission.shed"
			}
			jm.flight.Record(sev, kind, d.Reason,
				map[string]string{"tenant": tenantLabel(tenant), "code": fmt.Sprint(d.Code)})
			return Job{}, &AdmissionError{Decision: d}
		}
		admitted = true
	}
	job := &Job{Tenant: tenant, Request: req, admitted: admitted, plan: p, tin: ti}
	job.Created = time.Now()
	// Register and enqueue atomically with the drain check, so a job can
	// never be accepted after BeginDrain.
	jm.mu.Lock()
	err = errShuttingDown
	var snap Job
	if !jm.draining {
		if err = jm.q.AddLocked(job, false); err == nil {
			snap = jm.q.SnapshotLocked(job)
			jm.journalPut(jm.w.journal, job, JobQueued, nil)
		}
	}
	jm.mu.Unlock()
	if err != nil {
		if admitted {
			adm.Release(tenant)
		}
		if errors.Is(err, ErrQueueFull) {
			jm.flight.Record(obs.SevWarn, "queue.full", "submission rejected: pending queue at capacity",
				map[string]string{"tenant": tenantLabel(tenant)})
		}
		return Job{}, err
	}
	ti.accepted()
	jm.flight.Record(obs.SevInfo, "job.submit", "search job queued",
		map[string]string{"id": job.ID, "tenant": tenantLabel(tenant)})
	return snap, nil
}

// stallFractionBuckets spans the trailing-stall fraction in [0, 1].
var stallFractionBuckets = []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9}

// observeConvergence feeds a finished job's convergence metrics into the
// per-workload histograms, labeled by workload and atlas assist so the
// warm-start uplift (atlas-neighbor vs cold sample efficiency) is readable
// straight off /metrics. Runs once per job, outside jm.mu: HistogramWith
// takes the registry lock and returns the existing series after the first
// registration.
func (jm *JobManager) observeConvergence(job *Job, result *JobResult) {
	if result == nil || result.Convergence == nil {
		return
	}
	algo := job.Request.Algo
	if algo == "" {
		algo = "einsum"
	}
	assist := "cold"
	if result.Source == "atlas-neighbor" {
		assist = "atlas-neighbor"
	}
	names, vals := []string{"algo", "assist"}, []string{algo, assist}
	conv := result.Convergence
	if conv.EvalsToWithin10Pct > 0 {
		jm.reg.HistogramWith("search_convergence_evals_to_10pct",
			"Evaluations until the best-so-far came within 10% of the run's final best, by workload and atlas assist.",
			obs.ExpBuckets(1, 2, 16), names, vals).Observe(float64(conv.EvalsToWithin10Pct))
	}
	jm.reg.HistogramWith("search_convergence_stall_fraction",
		"Fraction of the budget spent after the last improvement, by workload and atlas assist.",
		stallFractionBuckets, names, vals).Observe(conv.StallFraction)
	if conv.Stalled {
		jm.reg.CounterWith("search_convergence_stalled_total",
			"Finished jobs that spent at least half their budget past the last improvement.",
			names, vals).Inc()
	}
}

// tryAtlasServe attempts the exact-hit read path for a resolved request:
// when the atlas holds a solved mapping for the plan's key, a synthetic
// already-done job carrying that mapping (Result.Source "atlas") is
// registered and returned — no search runs, no admission slot or queue
// capacity is consumed.
func (jm *JobManager) tryAtlasServe(at *atlas.Atlas, tenant string, ti *tenantInstruments, req SearchRequest, p *plan) (Job, bool) {
	a := jm.atlasAnswerFor(at, p)
	if a == nil || !a.servable {
		return Job{}, false
	}
	job := &Job{
		Tenant:  tenant,
		Request: req,
		Result: &JobResult{
			Method:   a.method,
			Source:   "atlas",
			BestEDP:  a.bestEDP,
			Mapping:  a.mapping,
			LoopNest: a.loopNest,
		},
		tin: ti,
	}
	job.Created = time.Now()
	jm.mu.Lock()
	if jm.draining || jm.q.AddDoneLocked(job) != nil {
		jm.mu.Unlock()
		return Job{}, false
	}
	job.Root().Set("source", "atlas")
	job.Root().Set("atlas_entry", a.entry)
	jm.met.atlasHits.Inc()
	snap := jm.q.SnapshotLocked(job)
	jm.mu.Unlock()
	ti.atlasServed()
	jm.flight.Record(obs.SevInfo, "job.atlas-hit", "request served from the atlas",
		map[string]string{"id": snap.ID, "tenant": tenantLabel(tenant)})
	return snap, true
}

// atlasAnswer is what one atlas entry answers for one problem name: the
// rendered mapping and loop nest, or servable false when the entry cannot
// answer (its blob is unreadable, or its mapping is not a member of the
// problem's map space). An entry ID names one immutable mapping, and the
// atlas key fixes the algorithm, the accelerator and the shape, so within
// a process the answer for (entry, problem) never changes.
type atlasAnswer struct {
	entry, problem    string
	servable          bool
	method            string
	bestEDP           float64
	mapping, loopNest string
}

// atlasAnswerFor returns the answer of the best entry for the plan's key,
// or nil when the atlas holds none. The answer is prepared on the first
// request after the key's best entry or the problem name changes, and
// every later hit reuses it; jm.answers keeps one per atlas key.
func (jm *JobManager) atlasAnswerFor(at *atlas.Atlas, p *plan) *atlasAnswer {
	best, ok := at.Best(p.key)
	if !ok {
		return nil
	}
	if v, ok := jm.answers.Load(p.key); ok {
		if a := v.(*atlasAnswer); a.entry == best.ID && a.problem == p.prob.Name {
			return a
		}
	}
	a := jm.prepareAnswer(at, p, best.ID)
	if a != nil {
		jm.answers.Store(p.key, a)
	}
	return a
}

// prepareAnswer reads the key's best entry, checks its mapping is a member
// of the plan's map space (an entry published under drifted mapspace
// constants is not; atlas GC with a staleness predicate reaps such
// entries) and renders it. An entry that cannot answer is recorded on the
// flight recorder once, and its requests run a search.
func (jm *JobManager) prepareAnswer(at *atlas.Atlas, p *plan, id string) *atlasAnswer {
	e, m, ok, err := at.Lookup(p.key)
	if err != nil {
		jm.flight.Record(obs.SevWarn, "atlas.lookup-error", "atlas entry unreadable; its requests run a search",
			map[string]string{"key": p.key, "entry": id, "error": err.Error()})
		return &atlasAnswer{entry: id, problem: p.prob.Name}
	}
	if !ok {
		return nil // removed since Best
	}
	a := &atlasAnswer{entry: e.ID, problem: p.prob.Name, method: e.Method, bestEDP: e.BestEDP}
	space, err := mapspace.New(p.arch, p.prob)
	if err == nil {
		err = space.IsMember(&m)
	}
	if err != nil {
		jm.flight.Record(obs.SevWarn, "atlas.stale-entry", "atlas mapping is not in the problem's map space; its requests run a search",
			map[string]string{"key": p.key, "entry": e.ID, "problem": p.prob.Name, "error": err.Error()})
		return a
	}
	a.servable, a.mapping, a.loopNest = true, m.String(), space.RenderLoopNest(&m)
	return a
}

func copyJob(j *Job) Job {
	c := *j
	c.checkpoint = nil
	c.Resumable = j.resumable()
	if j.Result != nil {
		r := *j.Result
		r.Trajectory = j.trajectory()
		c.Result = &r
	}
	return c
}

// trajectory renders the job's best-so-far trajectory from its event
// history: each running event past eval 0 is one recorded sample.
func (j *Job) trajectory() []TrajectoryPoint {
	var out []TrajectoryPoint
	for _, ev := range j.Stream().History() {
		if ev.Status == JobRunning && ev.Eval > 0 {
			out = append(out, TrajectoryPoint{Eval: ev.Eval, ElapsedMS: ev.ElapsedMS, BestEDP: ev.BestEDP})
		}
	}
	return out
}

// run executes one search job on a queue worker, stores its result on the
// record, and reports how it ended.
func (jm *JobManager) run(ctx context.Context, job *Job) (JobStatus, error) {
	jm.met.queueWait.Observe(job.Started.Sub(job.Created).Seconds())
	jm.mu.Lock()
	p := job.plan
	jm.mu.Unlock()
	if p == nil {
		// A job recovered from the journal resolves on its first run; a
		// request that no longer resolves fails the job here.
		var err error
		if p, err = job.Request.resolve(); err != nil {
			return JobFailed, err
		}
		jm.mu.Lock()
		job.plan = p
		jm.mu.Unlock()
	}
	// The anytime deadline: the client's timeout_ms clamped to the
	// server's ceiling (which also applies on its own). It layers over
	// the cancellable job context, so the finish path can tell deadline
	// expiry (degraded completion) from cancellation by which context
	// carries the error.
	timeout := p.timeout
	if ceiling := jm.wired().maxJobTime; ceiling > 0 && (timeout <= 0 || timeout > ceiling) {
		timeout = ceiling
	}
	runCtx := ctx
	if timeout > 0 {
		var cancelTimeout context.CancelFunc
		runCtx, cancelTimeout = context.WithTimeout(ctx, timeout)
		defer cancelTimeout()
	}
	res, space, seeded, err := jm.execute(runCtx, job, p)
	jm.met.run.Observe(time.Since(job.Started).Seconds())
	// Deadline expiry with the job context intact is the anytime path;
	// searchers observe it as cancellation and return best-so-far with a
	// nil error, so err != nil here always means a genuine failure.
	deadlined := errors.Is(runCtx.Err(), context.DeadlineExceeded) && ctx.Err() == nil

	result := buildResult(res, space)
	if result != nil && seeded {
		result.Source = "atlas-neighbor"
	}
	jm.observeConvergence(job, result)
	// Atlas write-back eligibility: only full-budget successes. Degraded
	// (deadline-cut) results are valid but under-searched — storing them
	// would seed future warm starts from half-finished descents. The
	// publish runs before the job turns terminal so that anyone who
	// observes the job done also observes its write-back (atlas counters
	// are deterministic for waiters and `atlas build`).
	if err == nil && ctx.Err() == nil && !deadlined && result != nil {
		jm.atlasWriteback(job, res)
	}
	jm.mu.Lock()
	defer jm.mu.Unlock()
	switch {
	case err != nil && ctx.Err() != nil:
		// Treat errors after cancellation as cancellation.
		return JobCancelled, nil
	case err != nil:
		return JobFailed, err
	case ctx.Err() != nil:
		job.Result = result
		return JobCancelled, nil
	case deadlined && result == nil:
		return JobFailed, fmt.Errorf("service: deadline (%v) expired before any evaluation completed", timeout)
	case deadlined:
		result.Degraded = true
		jm.met.degraded.Inc()
	}
	job.Result = result
	return JobDone, nil
}

// atlasWriteback publishes a completed job's best mapping into the atlas
// (only-if-better per key), so the atlas self-populates from live
// traffic. Runs outside jm.mu — publishing stages and renames files —
// and before the job is marked terminal, so write-backs are visible to
// anyone who observes the job done.
func (jm *JobManager) atlasWriteback(job *Job, res *search.Result) {
	w := jm.wired()
	if w.atlasStore == nil || w.atlasRO {
		return
	}
	if res == nil || res.Evals == 0 || len(res.Best.Spatial) == 0 || math.IsInf(res.BestEDP, 0) {
		return
	}
	p := job.plan // set by now, and only ever by this worker or before it
	e := atlas.Entry{
		Key:       p.key,
		Family:    p.family,
		Algo:      p.algo.Name,
		AlgoFP:    p.algoFP,
		ArchFP:    p.archFP,
		CostModel: p.costModel,
		Objective: p.obj.String(),
		Shape:     p.prob.Shape,
		BestEDP:   res.BestEDP,
		Evals:     res.Evals,
		Method:    res.Method,
		Source:    w.atlasSource,
	}
	if _, published, err := w.atlasStore.Publish(e, &res.Best); err == nil && published {
		jm.met.atlasWritebacks.Inc()
	}
}

// DefaultJobRetention is how many finished jobs the manager keeps
// queryable before evicting the oldest; without a bound a long-running
// server would accumulate every finished job forever. A retained job keeps
// what its readers read (GET /v1/jobs/{id}, /events, /trace): its request,
// result, closed event history and span tree; a done job also drops its
// plan and checkpoint (finish).
const DefaultJobRetention = 1024

// SetJobRetention overrides the terminal-job retention bound (minimum 1).
func (jm *JobManager) SetJobRetention(n int) { jm.q.SetRetention(n) }

// finish is the queue's terminal hook for search jobs, run under jm.mu in
// the critical section that makes the job terminal: tenant accounting,
// the flight-recorder entry, the admission slot, the journal record, and
// what a done job no longer needs. A done job is never resumed, so it
// drops its plan and its checkpoint (CheckpointEval stays for its
// readers); a failed or cancelled job keeps both for Resume.
func (jm *JobManager) finish(job *Job) {
	if job.Status == JobDone {
		job.checkpoint, job.plan = nil, nil
	}
	job.tin.finished(job)
	// Record is a leaf mutex, safe under jm.mu; instruments were resolved
	// at submit.
	sev, msg := obs.SevInfo, "search job finished"
	switch {
	case job.Status == JobFailed:
		sev, msg = obs.SevError, job.Error
	case job.Status == JobCancelled:
		msg = "search job cancelled"
	case job.Result != nil && job.Result.Degraded:
		sev, msg = obs.SevWarn, "search job completed degraded at its anytime deadline"
	}
	jm.flight.Record(sev, "job.finish", msg, map[string]string{
		"id": job.ID, "tenant": tenantLabel(job.Tenant), "status": string(job.Status)})
	// The admission controller's lock is a leaf below jm.mu.
	if job.admitted && jm.w.admission != nil {
		jm.w.admission.Release(job.Tenant)
	}
	job.admitted = false
	// Journal bookkeeping: a terminal job's record is deleted — unless the
	// manager is draining, in which case records stay in place so the next
	// process recovers and resumes the drained jobs from their last
	// checkpoints. The write is tiny (and idempotent), so doing it under
	// jm.mu keeps finish ordering deterministic for the recovery tests.
	if jm.w.journal != nil && !jm.draining {
		if err := jm.w.journal.Delete(job.ID); err != nil {
			jm.met.journalErrs.Inc()
			jm.flight.Record(obs.SevError, "journal.error", err.Error(),
				map[string]string{"id": job.ID, "op": "delete"})
		}
	}
}

// evalTimingSample is jobEvaluator's sampling period for per-backend eval
// latency histograms: two clock reads (~50ns) every 64th ~300ns evaluation
// amortizes to under a nanosecond per eval, keeping search throughput
// within noise of the uninstrumented path.
const evalTimingSample = 64

// faultSiteEval is the injector site a job's evaluations draw from.
const faultSiteEval = "eval"

// jobEvaluator is the evaluator a search job runs on: its backend, with
// every evalTimingSample-th evaluation timed into hist and, when faults
// is armed, each attempt drawing site "eval" faults inside
// resilience.DefaultRetry. The timing covers the retries and any injected
// delay. The search tracker charges paid queries itself, so MM's offline
// scoring evaluations pass through here timed and fault-injected but
// never charged.
type jobEvaluator struct {
	costmodel.Evaluator
	hist   *obs.Histogram
	faults *resilience.Faults
	n      atomic.Int64
}

func (e *jobEvaluator) EvaluateInto(ctx context.Context, m *mapspace.Mapping, c *costmodel.Cost) error {
	if e.n.Add(1)%evalTimingSample != 0 {
		return e.evaluate(ctx, m, c)
	}
	start := time.Now()
	err := e.evaluate(ctx, m, c)
	if err == nil {
		e.hist.ObserveDuration(time.Since(start))
	}
	return err
}

func (e *jobEvaluator) EvaluateBatchInto(ctx context.Context, ms []mapspace.Mapping, costs []costmodel.Cost, errs []error) {
	costmodel.SequentialBatch(ctx, e, ms, costs, errs)
}

// evaluate runs the backend, or with faults armed retries attempt under
// resilience.DefaultRetry; cancellation stops the retry at once.
func (e *jobEvaluator) evaluate(ctx context.Context, m *mapspace.Mapping, c *costmodel.Cost) error {
	if e.faults == nil {
		return e.Evaluator.EvaluateInto(ctx, m, c)
	}
	return resilience.DefaultRetry.Do(ctx, func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return e.attempt(ctx, m, c)
	})
}

// attempt is one fault-injected evaluation: a drawn latency spike stalls
// it (honouring ctx) and a drawn error fails it without touching the
// backend. The schedule is a pure function of the injector's seed.
func (e *jobEvaluator) attempt(ctx context.Context, m *mapspace.Mapping, c *costmodel.Cost) error {
	inj := e.faults.Inject(faultSiteEval)
	if inj.Delay > 0 {
		spike := time.NewTimer(inj.Delay)
		select {
		case <-spike.C:
		case <-ctx.Done():
			spike.Stop()
			return ctx.Err()
		}
	}
	if inj.Err != nil {
		return inj.Err
	}
	return e.Evaluator.EvaluateInto(ctx, m, c)
}

// execute runs the search described by the job's plan p under ctx,
// recording model-resolution and search spans on the job's trace and
// publishing live progress to its event stream. It resumes from the job's
// checkpoint when it holds one, and reports whether it warm-started from
// an atlas neighbor.
func (jm *JobManager) execute(ctx context.Context, job *Job, p *plan) (*search.Result, *mapspace.Space, bool, error) {
	jm.mu.Lock()
	resume := job.checkpoint
	checkpointEvery := jm.w.checkpointEvery
	jm.mu.Unlock()
	root := job.Root()
	sctx, err := search.NewContext(p.costModel, p.arch, p.prob)
	if err != nil {
		return nil, nil, false, err
	}
	// Atlas nearest-neighbor warm start: on an exact-key miss the mm
	// descent starts from the closest solved same-family shape, its
	// mapping re-projected into this problem's space. Resumed jobs keep
	// their checkpointed chains instead (SeedMapping is inert under
	// Resume, so counting them cold would be wrong too). An unreadable
	// neighbor is recorded like an unreadable exact hit, and the job
	// starts cold.
	var seedMapping *mapspace.Mapping
	if at := jm.wired().atlasStore; at != nil && resume == nil {
		if p.searcher == "mm" {
			e, nm, dist, ok, nerr := at.Nearest(p.family, p.prob.Shape)
			if nerr != nil {
				jm.flight.Record(obs.SevWarn, "atlas.lookup-error", "atlas neighbor unreadable; the search starts cold",
					map[string]string{"key": p.key, "error": nerr.Error()})
			} else if ok {
				seed := sctx.Space.Reproject(&nm)
				seedMapping = &seed
				root.Set("atlas_seed", e.ID)
				root.Set("atlas_seed_distance", dist)
			}
		}
		if seedMapping != nil {
			jm.met.atlasNeighbors.Inc()
		} else {
			jm.met.atlasCold.Inc()
		}
	}
	// Model resolution covers registry loads and, for "auto" with
	// train_on_miss, the wait on a shared training run.
	resolveSpan := root.StartChild("resolve-model")
	searcher, err := jm.searcher(ctx, &job.Request, p)
	resolveSpan.End()
	if err != nil {
		return nil, nil, false, err
	}
	backend := sctx.Model.Name()
	sctx.Model = &jobEvaluator{
		Evaluator: sctx.Model,
		hist: jm.reg.HistogramWith("costmodel_eval_seconds", evalSecondsHelp,
			evalSecondsBuckets, []string{"backend"}, []string{backend}),
		faults: jm.wired().faults,
	}
	searchSpan := root.StartChild("search")
	searchSpan.Set("searcher", p.searcher)
	firstSample := true
	sctx.Seed = job.Request.Seed
	sctx.Objective = p.obj
	sctx.Ctx = ctx
	sctx.Evals = jm.counterFor(backend)
	sctx.Resume = resume
	sctx.SeedMapping = seedMapping
	// Checkpoints always flow to the in-memory job record (enabling resume
	// without a journal) and, when journaling is on, to disk.
	sctx.CheckpointEvery = checkpointEvery
	// The hook owns each checkpoint it is handed (search.emitCheckpoint
	// builds a fresh one per call), so it is kept without a copy.
	sctx.Checkpoint = func(c *search.Checkpoint) {
		jm.mu.Lock()
		job.checkpoint, job.CheckpointEval = c, c.Eval
		j := jm.w.journal
		jm.mu.Unlock()
		jm.journalPut(j, job, JobRunning, c)
	}
	sctx.Progress = func(pr search.Progress) {
		if firstSample {
			// Progress runs on the job's worker goroutine, so the flag needs
			// no lock; job.Started was set before execute began.
			firstSample = false
			jm.met.firstEval.Observe(time.Since(job.Started).Seconds())
		}
		job.Stream().Publish(progressEvent(pr))
	}
	if resume != nil {
		// The fresh stream first carries the restored trajectory prefix,
		// published here rather than through Progress so that it does not
		// time the first eval.
		best := math.Inf(1)
		for _, s := range resume.Prefix() {
			job.Stream().Publish(progressEvent(search.Progress{
				Eval: s.Eval, Best: s.BestEDP, Elapsed: s.Elapsed, Improved: s.BestEDP < best}))
			best = s.BestEDP
		}
	}
	res, err := searcher.Search(sctx, p.budget)
	searchSpan.End()
	if err != nil {
		return nil, nil, false, err
	}
	searchSpan.Set("evals", res.Evals)
	return &res, sctx.Space, seedMapping != nil, nil
}

// progressEvent is the running event for one recorded trajectory sample.
func progressEvent(pr search.Progress) ProgressEvent {
	ev := ProgressEvent{Status: JobRunning, Eval: pr.Eval, BestEDP: pr.Best,
		ElapsedMS: float64(pr.Elapsed.Microseconds()) / 1e3, Improved: pr.Improved}
	if pr.Elapsed > 0 {
		ev.EvalsPerSec = float64(pr.Eval) / pr.Elapsed.Seconds()
	}
	return ev
}

// searcher builds the requested search method, pulling the shared
// surrogate from the registry for mm and checking it matches the resolved
// workload by name and (when stamped) by fingerprint. "auto" models
// resolve through the store by workload fingerprint, training on a miss
// when the request asks for it.
func (jm *JobManager) searcher(ctx context.Context, req *SearchRequest, p *plan) (search.Searcher, error) {
	if s, ok := blackBox[p.searcher]; ok {
		return s, nil
	}
	name := req.Model
	if name == "auto" {
		id, err := jm.resolveAuto(ctx, req, p)
		if err != nil {
			return nil, err
		}
		name = id
	}
	sur, err := jm.registry.Get(name)
	if err != nil {
		return nil, err
	}
	if sur.AlgoName != p.algo.Name {
		return nil, fmt.Errorf("service: model %q was trained for %s, request targets %s",
			name, sur.AlgoName, p.algo.Name)
	}
	if sur.AlgoFP != "" && sur.AlgoFP != p.algoFP {
		return nil, fmt.Errorf("service: model %q was trained for workload %s with fingerprint %.12s…, the requested definition has %.12s…",
			name, sur.AlgoName, sur.AlgoFP, p.algoFP)
	}
	return search.MindMappings{Surrogate: sur}, nil
}

// resolveAuto maps "model":"auto" to a store artifact ID: the best stored
// version whose workload fingerprint, labeling cost model, AND accelerator
// fingerprint all match the search — a surrogate approximates one specific
// f, so an artifact trained against a different backend or arch must never
// be served silently. On a miss, train_on_miss drives an on-demand
// training run (deduplicated with any equivalent run already in flight,
// and cancelled along with the search job's context) that trains against
// the request's own cost model.
func (jm *JobManager) resolveAuto(ctx context.Context, req *SearchRequest, p *plan) (string, error) {
	w := jm.wired()
	store, pipe := w.store, w.trainPipe
	if store == nil {
		return "", errors.New(`service: "model":"auto" needs a model store (serve with -store)`)
	}
	match := func(m modelstore.Manifest) bool {
		return m.CostModel == p.costModel && m.ArchFP == p.archFP
	}
	if m, ok := store.ResolveMatching(p.algoFP, match); ok {
		return m.ID, nil
	}
	if req.TrainOnMiss == nil || pipe == nil {
		return "", fmt.Errorf("service: no stored model for workload %s (fingerprint %.12s…) trained against cost model %q; POST /v1/train, or set train_on_miss",
			p.algo.Name, p.algoFP, p.costModel)
	}
	job, err := pipe.Ensure(req.trainRequest())
	if err != nil {
		return "", fmt.Errorf("service: train-on-miss: %w", err)
	}
	done, err := pipe.Wait(ctx, job.ID)
	if err != nil {
		return "", fmt.Errorf("service: train-on-miss: %w", err)
	}
	if done.Status != trainer.StatusDone {
		return "", fmt.Errorf("service: train-on-miss job %s finished %s: %s", done.ID, done.Status, done.Error)
	}
	return done.Artifact.ID, nil
}

// buildResult converts a search result into its wire form. A run that
// never completed an evaluation (budget of ~0, or cancelled immediately)
// has no result: its best-so-far is +Inf, which JSON cannot carry.
func buildResult(res *search.Result, space *mapspace.Space) *JobResult {
	if res == nil || res.Evals == 0 || math.IsInf(res.BestEDP, 0) {
		return nil
	}
	out := &JobResult{
		Method:    res.Method,
		BestEDP:   res.BestEDP,
		Evals:     res.Evals,
		ElapsedMS: float64(res.Elapsed.Microseconds()) / 1e3,
	}
	if res.Evals > 0 && len(res.Best.Spatial) > 0 {
		out.Mapping = res.Best.String()
		out.LoopNest = space.RenderLoopNest(&res.Best)
	}
	if conv := res.Convergence(); len(res.Trajectory) > 0 {
		out.Convergence = &conv
	}
	return out
}

// JobStats summarizes job lifecycle counts for /v1/status: the queue's
// counters and gauges, plus jobs completed degraded at their anytime
// deadline, jobs recovered from the journal at startup, and journal writes
// that failed even after bounded retry.
type JobStats struct {
	jobqueue.Stats
	Degraded      uint64 `json:"degraded"`
	Recovered     uint64 `json:"recovered"`
	JournalErrors uint64 `json:"journal_errors"`
}

// Stats snapshots the lifecycle counters and live queue state; it reads
// only instruments and takes no lock.
func (jm *JobManager) Stats() JobStats {
	m := &jm.met
	return JobStats{
		Stats:         jm.q.Stats(),
		Degraded:      uint64(m.degraded.Value()),
		Recovered:     uint64(m.recovered.Value()),
		JournalErrors: uint64(m.journalErrs.Value()),
	}
}

// counterFor returns the shared paid-eval counter for a cost-model
// backend, creating it on first use. Jobs selecting the same backend share
// one counter, exposed as costmodel_evals_total{backend}.
func (jm *JobManager) counterFor(backend string) *costmodel.Counter {
	jm.countersMu.Lock()
	defer jm.countersMu.Unlock()
	ctr, ok := jm.counters[backend]
	if !ok {
		ctr = &costmodel.Counter{}
		jm.counters[backend] = ctr
		jm.reg.CounterFuncWith("costmodel_evals_total",
			"Paid cost-model evaluations per backend.",
			[]string{"backend"}, []string{backend},
			func() float64 { return float64(ctr.Count()) })
	}
	return ctr
}

// Workers returns the worker-pool size.
func (jm *JobManager) Workers() int { return jm.q.Workers() }

// QueueCap returns the pending-queue capacity.
func (jm *JobManager) QueueCap() int { return jm.q.Cap() }

// Shutdown cancels every job (queued and running) and waits for the
// worker pool to drain, or for ctx to expire. New submissions fail once
// shutdown has begun.
func (jm *JobManager) Shutdown(ctx context.Context) error { return jm.q.Shutdown(ctx) }
