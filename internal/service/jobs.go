package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
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
	"mindmappings/internal/costmodel"
	"mindmappings/internal/infer"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/modelstore"
	"mindmappings/internal/obs"
	"mindmappings/internal/oracle"
	"mindmappings/internal/resilience"
	"mindmappings/internal/search"
	"mindmappings/internal/surrogate"
	"mindmappings/internal/trainer"
	"mindmappings/internal/workload"

	_ "mindmappings/internal/timeloop" // register the reference cost-model backend
)

// JobStatus is the lifecycle state of a search job.
type JobStatus string

const (
	JobQueued    JobStatus = "queued"
	JobRunning   JobStatus = "running"
	JobDone      JobStatus = "done"
	JobFailed    JobStatus = "failed"
	JobCancelled JobStatus = "cancelled"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

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
	// (default) or "roofline". Per-backend eval totals are reported by
	// GET /v1/metrics.
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
	// Seed makes the run reproducible; jobs with equal requests and seeds
	// produce identical results.
	Seed int64 `json:"seed,omitempty"`
	// Parallelism fans the job's batched cost-model evaluations across up
	// to this many workers (capped at MaxParallelism). Search results are
	// bit-identical for any value — only the job's wall-clock changes —
	// so it composes safely with Seed reproducibility. 0 or 1 evaluates
	// sequentially.
	Parallelism int `json:"parallelism,omitempty"`
	// TimeoutMS is an anytime deadline in milliseconds: when it expires
	// before the budget does, the job completes with its best-so-far
	// mapping and "degraded": true instead of failing (DESIGN.md §9). The
	// server clamps it to its -maxjobtime, which also applies when no
	// timeout is requested. 0 means no client deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// MaxParallelism caps a request's Parallelism: enough to overlap
// query-latency-bound evaluation generously while keeping one job from
// monopolizing the scheduler (jobs already fan out across the manager's
// worker pool).
const MaxParallelism = 32

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
	Source     string            `json:"source,omitempty"`
	Mapping    string            `json:"mapping,omitempty"`
	LoopNest   string            `json:"loop_nest,omitempty"`
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

// progressRing bounds the per-job event history late subscribers replay:
// recent samples matter (the live tail), the full trajectory lives on the
// job result.
const progressRing = 256

// Job is the service-side record of one search request. Snapshots returned
// by the manager are copies; only the manager mutates the live record.
type Job struct {
	ID       string        `json:"id"`
	Status   JobStatus     `json:"status"`
	Tenant   string        `json:"tenant,omitempty"`
	Request  SearchRequest `json:"request"`
	Error    string        `json:"error,omitempty"`
	Created  time.Time     `json:"created"`
	Started  time.Time     `json:"started,omitzero"`
	Finished time.Time     `json:"finished,omitzero"`
	Result   *JobResult    `json:"result,omitempty"`
	// CheckpointEval is the eval count of the job's latest checkpoint (0
	// until the first snapshot); Resumable marks a terminal job that
	// POST /v1/jobs/{id}/resume can continue.
	CheckpointEval int  `json:"checkpoint_eval,omitempty"`
	Resumable      bool `json:"resumable,omitempty"`

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	// stream fans live ProgressEvents out to Watch subscribers; trace is
	// the job's span tree (queue wait, model resolution, search strides).
	stream *obs.Stream[ProgressEvent]
	trace  *obs.Trace
	// admitted marks a job holding an admission-controller slot, released
	// exactly once at finish; checkpoint is the latest searcher snapshot
	// (also journaled when the journal is enabled); resume, when set,
	// continues the search from that snapshot instead of starting fresh.
	admitted   bool
	checkpoint *search.Checkpoint
	resume     *search.Checkpoint
	// atlasID caches the job's atlas identity (computed at submit when an
	// atlas is attached); atlasSeeded marks a run warm-started from a
	// nearest-neighbor atlas entry, stamped into Result.Source at finish.
	atlasID     *atlasIdentity
	atlasSeeded bool
	// tin is the tenant's instrument set, resolved once at submission
	// (outside jm.mu) so the finish path under jm.mu only does atomic adds.
	tin *tenantInstruments
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

// JobManager owns the bounded job queue and the worker pool that drains
// it. All jobs share one ModelRegistry (surrogates loaded once) and one
// EvalCache (memoized cost-model queries).
type JobManager struct {
	registry *ModelRegistry
	cache    *EvalCache
	// store and trainPipe, when set via EnableTraining, activate
	// "model":"auto" fingerprint resolution and train-on-miss.
	store     *modelstore.Store
	trainPipe *trainer.Pipeline

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu sync.Mutex
	// pending is the FIFO of queued jobs, bounded by queueCap for Submit
	// (journal recovery may exceed it — recovered work is never dropped).
	// A slice rather than a channel so cancelling a queued job frees its
	// slot immediately; cond wakes workers on enqueue and shutdown.
	pending  []*Job
	queueCap int
	cond     *sync.Cond
	// draining, set by BeginDrain, rejects new submissions and tells
	// finishLocked to leave journal records in place so a restart resumes
	// the drained jobs.
	draining  bool
	jobs      map[string]*Job
	order     []string // submission order, for listing
	workers   int
	retention int // max terminal jobs kept for GET /v1/jobs before eviction

	// lifecycle counters, guarded by mu
	submitted uint64
	completed uint64
	failed    uint64
	cancelled uint64
	degraded  uint64
	recovered uint64

	// resilience wiring: per-tenant admission control (EnableAdmission),
	// the crash-safe job journal (EnableJournal), deterministic fault
	// injection on the eval path (SetFaults), and the anytime-deadline
	// ceiling (SetMaxJobTime). journalErrs counts journal writes that
	// failed even after bounded retry — the job keeps running; only its
	// crash-recovery point goes stale.
	admission       *resilience.Admission
	journal         *resilience.Journal
	journalErrs     uint64
	faults          *resilience.Faults
	maxJobTime      time.Duration
	checkpointEvery int

	// healthFn, when set (SetHealth), feeds the SLO tracker's overall
	// score into Load so admission thresholds can shed on burn rate
	// instead of raw heap/queue numbers. Guarded by mu; invoked outside it.
	healthFn func() float64
	// flightRec, when set (SetFlightRecorder), receives operational events:
	// job lifecycle, admission rejections, shed decisions, journal errors,
	// batcher anomalies. Guarded by mu for the pointer; Record itself is a
	// leaf mutex, safe to call under mu.
	flightRec *obs.FlightRecorder

	// SLO counterparts of the mu-guarded lifecycle counters: SLI callbacks
	// run under the tracker's own mutex and at metric-exposition time, so
	// they must never take jm.mu — they read these instead.
	sloDone   atomic.Uint64 // jobs finished JobDone (degraded included)
	sloFailed atomic.Uint64 // jobs finished JobFailed

	// Per-tenant instrument sets, lazily registered on first sight of a
	// tenant. Guarded by tenantMu, a leaf below nothing: tenantFor must
	// never run under jm.mu (registration takes the registry lock, and
	// exposition callbacks take jm.mu under it).
	tenantMu sync.Mutex
	tenants  map[string]*tenantInstruments

	// Atlas wiring (EnableAtlas): exact-key hits are served from the
	// store without running a search job, mm misses warm-start from the
	// nearest solved neighbor, and completed jobs write back unless
	// atlasRO. Counters guarded by mu.
	atlasStore      *atlas.Atlas
	atlasRO         bool
	atlasSource     string
	atlasHits       uint64
	atlasNeighbors  uint64
	atlasCold       uint64
	atlasWritebacks uint64

	// counters holds one shared paid-eval counter per cost-model backend
	// (costmodel.WithCounter accounting, surfaced by GET /v1/metrics).
	// Guarded by countersMu, not mu: jobs read them on the hot path.
	countersMu sync.Mutex
	counters   map[string]*costmodel.Counter
	evalHists  map[string]*obs.Histogram

	// instr holds the obs metrics set by Instrument, read through
	// instruments() so workers racing an Instrument call stay safe.
	instr *jobInstruments

	// Cross-request inference batching: one infer.Batcher per registry
	// surrogate coalesces Predict/Gradient batches from every concurrent
	// job that shares the model (internal/infer). Guarded by batchMu, not
	// mu: batcherFor runs on the job hot path and must not contend with
	// queue operations. batchCfg is fixed per batcher at creation;
	// SetBatching before serving traffic.
	batchMu  sync.Mutex
	batchCfg infer.Config
	batchers map[string]*inferBatcherEntry
}

// inferBatcherEntry pins the surrogate pointer a batcher was built for, so
// a registry reload/republish under the same name gets a fresh batcher
// instead of silently routing to the evicted model.
type inferBatcherEntry struct {
	sur *surrogate.Surrogate
	b   *infer.Batcher
}

// jobInstruments bundles the manager's obs metrics.
type jobInstruments struct {
	reg         *obs.Registry
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

// Instrument registers the manager's metrics in reg: queue-wait and run
// histograms, lifecycle counters, and live queue gauges. Per-backend eval
// counters and latency histograms register lazily as backends serve jobs.
// Call once at setup, before or after jobs start — workers pick the
// instruments up on their next job.
func (jm *JobManager) Instrument(reg *obs.Registry) {
	in := &jobInstruments{
		reg: reg,
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
	reg.CounterFunc("search_jobs_submitted_total",
		"Search jobs accepted by POST /v1/search.",
		func() float64 { return float64(jm.Stats().Submitted) })
	reg.CounterFunc("search_jobs_done_total",
		"Search jobs finished successfully.",
		func() float64 { return float64(jm.Stats().Done) })
	reg.CounterFunc("search_jobs_failed_total",
		"Search jobs that ended in an error.",
		func() float64 { return float64(jm.Stats().Failed) })
	reg.CounterFunc("search_jobs_cancelled_total",
		"Search jobs cancelled by clients or shutdown.",
		func() float64 { return float64(jm.Stats().Cancelled) })
	reg.GaugeFunc("search_jobs_queued",
		"Search jobs waiting for a worker.",
		func() float64 { return float64(jm.Stats().Queued) })
	reg.GaugeFunc("search_jobs_running",
		"Search jobs currently executing.",
		func() float64 { return float64(jm.Stats().Running) })
	reg.GaugeFunc("search_job_workers",
		"Size of the search worker pool.",
		func() float64 { return float64(jm.Workers()) })
	reg.CounterFunc("search_jobs_degraded_total",
		"Search jobs completed degraded at their anytime deadline.",
		func() float64 { return float64(jm.Stats().Degraded) })
	reg.CounterFunc("search_jobs_recovered_total",
		"Search jobs recovered from the journal at startup.",
		func() float64 { return float64(jm.Stats().Recovered) })
	reg.CounterFunc("search_job_journal_errors_total",
		"Journal writes that failed even after bounded retry.",
		func() float64 { return float64(jm.Stats().JournalErrors) })
	// Admission series read through the getter so they work whenever
	// EnableAdmission is called, before or after Instrument; they report 0
	// while no controller is installed.
	admStats := func() resilience.AdmissionStats {
		if a := jm.admissionCtrl(); a != nil {
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
		"Requests shed under overload (queue wait, queue depth, or heap).",
		func() float64 { return float64(admStats().Shed) })
	reg.GaugeFunc("admission_in_flight",
		"Admission-controller concurrency slots currently held.",
		func() float64 { return float64(admStats().InFlight) })
	// Atlas series follow the same read-through-getter pattern: they work
	// whenever EnableAtlas is called and report 0 while no atlas is
	// attached.
	atlasStats := func() AtlasServiceStats {
		st, _ := jm.AtlasStats()
		return st
	}
	reg.CounterFunc("atlas_hits_total",
		"Search requests answered from the atlas without running a search job.",
		func() float64 { return float64(atlasStats().Hits) })
	reg.CounterFunc("atlas_neighbor_total",
		"Search jobs warm-started from a nearest-neighbor atlas mapping.",
		func() float64 { return float64(atlasStats().Neighbors) })
	reg.CounterFunc("atlas_cold_total",
		"Search jobs run with no atlas assist (no exact hit, no neighbor).",
		func() float64 { return float64(atlasStats().Cold) })
	reg.CounterFunc("atlas_writebacks_total",
		"Completed search jobs whose solutions were published into the atlas.",
		func() float64 { return float64(atlasStats().Writebacks) })
	reg.GaugeFunc("atlas_entries",
		"Committed mapping entries in the attached atlas.",
		func() float64 { return float64(atlasStats().Entries) })
	jm.mu.Lock()
	jm.instr = in
	jm.mu.Unlock()
}

func (jm *JobManager) instruments() *jobInstruments {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.instr
}

// NewJobManager starts workers goroutines (runtime.NumCPU() when workers
// <= 0) draining a queue of at most queueCap pending jobs (64 when <= 0).
// Call Shutdown to stop the pool.
func NewJobManager(registry *ModelRegistry, cache *EvalCache, workers, queueCap int) *JobManager {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if queueCap <= 0 {
		queueCap = 64
	}
	ctx, cancel := context.WithCancel(context.Background())
	jm := &JobManager{
		registry:  registry,
		cache:     cache,
		queueCap:  queueCap,
		baseCtx:   ctx,
		stop:      cancel,
		jobs:      make(map[string]*Job),
		workers:   workers,
		retention: DefaultJobRetention,
		counters:  make(map[string]*costmodel.Counter),
		batchCfg:  infer.Config{Window: infer.DefaultWindow, MaxBatch: infer.DefaultMaxBatch},
		batchers:  make(map[string]*inferBatcherEntry),
	}
	jm.cond = sync.NewCond(&jm.mu)
	jm.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go jm.worker()
	}
	return jm
}

// EnableTraining attaches the versioned artifact store and the training
// pipeline, activating "model":"auto" resolution (best published artifact
// for the request's workload fingerprint) and train_on_miss.
func (jm *JobManager) EnableTraining(store *modelstore.Store, tp *trainer.Pipeline) {
	jm.mu.Lock()
	jm.store = store
	jm.trainPipe = tp
	jm.mu.Unlock()
}

func (jm *JobManager) training() (*modelstore.Store, *trainer.Pipeline) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.store, jm.trainPipe
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
	jm.atlasStore = a
	jm.atlasRO = readonly
	if jm.atlasSource == "" {
		jm.atlasSource = "serve"
	}
	jm.mu.Unlock()
}

// SetAtlasSource overrides the provenance stamped on atlas write-back
// entries ("serve" by default; the offline sweep command stamps "build").
func (jm *JobManager) SetAtlasSource(source string) {
	jm.mu.Lock()
	jm.atlasSource = source
	jm.mu.Unlock()
}

func (jm *JobManager) atlasRef() *atlas.Atlas {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.atlasStore
}

// AtlasServiceStats reports atlas serving effectiveness for /v1/metrics:
// store occupancy plus how traffic split across the three read outcomes
// (exact hit, neighbor warm start, cold) and how many solutions flowed
// back in.
type AtlasServiceStats struct {
	ReadOnly   bool   `json:"readonly,omitempty"`
	Entries    int    `json:"entries"`
	Keys       int    `json:"keys"`
	Families   int    `json:"families"`
	Corrupt    int    `json:"corrupt,omitempty"`
	Hits       uint64 `json:"hits"`
	Neighbors  uint64 `json:"neighbors"`
	Cold       uint64 `json:"cold"`
	Writebacks uint64 `json:"writebacks"`
}

// AtlasStats snapshots the atlas serving counters; ok is false when no
// atlas is attached.
func (jm *JobManager) AtlasStats() (AtlasServiceStats, bool) {
	jm.mu.Lock()
	at := jm.atlasStore
	st := AtlasServiceStats{
		ReadOnly:   jm.atlasRO,
		Hits:       jm.atlasHits,
		Neighbors:  jm.atlasNeighbors,
		Cold:       jm.atlasCold,
		Writebacks: jm.atlasWritebacks,
	}
	jm.mu.Unlock()
	if at == nil {
		return AtlasServiceStats{}, false
	}
	as := at.Stats()
	st.Entries, st.Keys, st.Families, st.Corrupt = as.Entries, as.Keys, as.Families, as.Corrupt
	return st, true
}

// atlasIdentity is a request's fully resolved atlas coordinates: the
// exact-entry key, its shape-independent family, and the readable pieces
// both were derived from (stamped into write-back entries).
type atlasIdentity struct {
	key       string
	family    string
	algo      string
	algoFP    string
	archFP    string
	costModel string
	objective string
	shape     []int
}

// atlasIdentity resolves the request's atlas coordinates. It re-runs the
// cheap parts of request resolution (algorithm, problem, objective) —
// microseconds, amortized by the seconds a search costs — and never
// touches the surrogate registry or the store.
func (req *SearchRequest) atlasIdentity() (*atlasIdentity, error) {
	algo, err := req.algorithm()
	if err != nil {
		return nil, err
	}
	prob, err := req.resolveProblem(algo)
	if err != nil {
		return nil, err
	}
	obj, err := search.ParseObjective(req.Objective)
	if err != nil {
		return nil, err
	}
	cm := req.CostModel
	if cm == "" {
		cm = costmodel.DefaultBackend
	}
	id := &atlasIdentity{
		algo:      algo.Name,
		algoFP:    algo.Fingerprint(),
		archFP:    modelstore.ArchFingerprint(arch.Default(len(algo.Tensors) - 1)),
		costModel: cm,
		objective: obj.String(),
		shape:     append([]int(nil), prob.Shape...),
	}
	id.key, id.family = atlas.Key(id.algoFP, id.archFP, id.costModel, id.objective, id.shape)
	return id, nil
}

// SetBatching configures the cross-request inference batcher that
// coalesces surrogate queries from concurrent jobs sharing a model
// (window <= 0 disables batching; zero MaxBatch means infer's default).
// Batching is on by default with infer's defaults. Call at setup: the
// config is captured per model when its first job arrives, so changes
// only affect models not yet batched.
func (jm *JobManager) SetBatching(cfg infer.Config) {
	jm.batchMu.Lock()
	jm.batchCfg = cfg
	jm.batchers = make(map[string]*inferBatcherEntry)
	jm.batchMu.Unlock()
}

// batcherFor returns the shared batcher for a registry surrogate,
// creating it lazily. Entries are keyed by model name but pinned to the
// surrogate pointer: if the registry reloaded the model (LRU eviction,
// republish) the stale batcher is replaced so in-flight jobs on the old
// surrogate keep their old batcher while new jobs get the new one.
// Returns nil when batching is disabled.
func (jm *JobManager) batcherFor(name string, sur *surrogate.Surrogate) *infer.Batcher {
	jm.batchMu.Lock()
	defer jm.batchMu.Unlock()
	if jm.batchCfg.Window <= 0 {
		return nil
	}
	if e := jm.batchers[name]; e != nil && e.sur == sur {
		return e.b
	}
	b := infer.New(sur, jm.batchCfg, jm.batcherInstruments(name))
	jm.batchers[name] = &inferBatcherEntry{sur: sur, b: b}
	return b
}

// batcherInstruments builds the per-model infer metrics from the
// manager's registry (nil when Instrument was never called). Registering
// the same series twice returns the existing instruments, so a replaced
// batcher keeps accumulating into the model's series.
func (jm *JobManager) batcherInstruments(model string) *infer.Metrics {
	in := jm.instruments()
	if in == nil {
		return nil
	}
	names, vals := []string{"model"}, []string{model}
	m := &infer.Metrics{
		QueueDepth: in.reg.GaugeWith("infer_batch_queue_rows",
			"Rows currently queued in the cross-request inference batcher.", names, vals),
		BatchSize: in.reg.HistogramWith("infer_batch_rows",
			"Rows per coalesced surrogate batch handed to the GEMM kernels.",
			obs.ExpBuckets(1, 2, 9), names, vals),
		WindowWait: in.reg.HistogramWith("infer_batch_wait_seconds",
			"Time requests wait in the batcher before their flush starts.",
			obs.ExpBuckets(1e-6, 4, 10), names, vals),
		Flushes: map[infer.FlushReason]*obs.Counter{},
		Dropped: in.reg.CounterWith("infer_batch_dropped_total",
			"Queued batcher requests dropped because their job was cancelled.", names, vals),
		// Anomalies land in the flight recorder so the seconds before a
		// degraded job include what the batcher saw. The callback may run
		// under the batcher lock; Record is one leaf mutex and never calls
		// back into the batcher.
		Anomaly: func(kind, detail string) {
			jm.flight().Record(obs.SevWarn, "batcher."+kind, detail,
				map[string]string{"model": model})
		},
	}
	for _, r := range []infer.FlushReason{infer.FlushFull, infer.FlushAntiStall, infer.FlushWindow} {
		m.Flushes[r] = in.reg.CounterWith("infer_batch_flushes_total",
			"Batcher flushes by trigger (full batch, anti-stall, window expiry).",
			[]string{"model", "reason"}, []string{model, string(r)})
	}
	return m
}

// EnableAdmission installs a per-tenant admission controller wired to the
// manager's live overload signals (queue depth, queue-wait p95, heap) and
// its capacity-based Retry-After estimate. Call at setup, before traffic.
func (jm *JobManager) EnableAdmission(cfg resilience.AdmissionConfig) *resilience.Admission {
	a := resilience.NewAdmission(cfg, jm.Load, resilience.WithRetryHint(jm.RetryAfterHint))
	jm.mu.Lock()
	jm.admission = a
	jm.mu.Unlock()
	return a
}

func (jm *JobManager) admissionCtrl() *resilience.Admission {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.admission
}

// Load snapshots the overload signals admission decisions shed on.
func (jm *JobManager) Load() resilience.Load {
	st := jm.Stats()
	l := resilience.Load{QueueDepth: st.Queued, QueueCap: jm.QueueCap(), Health: 1}
	if in := jm.instruments(); in != nil {
		if q := in.queueWait.Quantile(0.95); q > 0 && !math.IsNaN(q) {
			l.QueueWaitP95 = time.Duration(q * float64(time.Second))
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l.HeapBytes = ms.HeapAlloc
	if fn := jm.health(); fn != nil {
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
	jm.healthFn = fn
	jm.mu.Unlock()
}

func (jm *JobManager) health() func() float64 {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.healthFn
}

// SetFlightRecorder attaches the operational-event ring. Call at setup,
// before traffic; nil detaches (Record is nil-safe throughout).
func (jm *JobManager) SetFlightRecorder(fr *obs.FlightRecorder) {
	jm.mu.Lock()
	jm.flightRec = fr
	jm.mu.Unlock()
}

// flight returns the recorder (possibly nil; Record on nil is a no-op).
// Never call while holding jm.mu — read jm.flightRec directly there.
func (jm *JobManager) flight() *obs.FlightRecorder {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.flightRec
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
	if in := jm.instruments(); in != nil {
		if q := in.run.Quantile(0.5); q > 0 && !math.IsNaN(q) {
			p50 = q
		}
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
	jm.maxJobTime = d
	jm.mu.Unlock()
}

// SetCheckpointInterval overrides how many evaluations elapse between
// searcher checkpoints (search.DefaultCheckpointEvery when 0).
func (jm *JobManager) SetCheckpointInterval(evals int) {
	jm.mu.Lock()
	jm.checkpointEvery = evals
	jm.mu.Unlock()
}

// SetFaults arms deterministic fault injection on every job's evaluation
// path: the cost-model stack becomes WithRetry(WithFaults(model)), so
// injected errors and latency spikes exercise the retry machinery the
// way real transient faults would. Nil disarms.
func (jm *JobManager) SetFaults(f *resilience.Faults) {
	jm.mu.Lock()
	jm.faults = f
	jm.mu.Unlock()
}

func (jm *JobManager) faultsInjector() *resilience.Faults {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.faults
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

// journalPut writes a job's journal record, counting (but not failing on)
// errors that survive the journal's bounded retry: the job keeps running,
// only its crash-recovery point goes stale.
func (jm *JobManager) journalPut(id string, status JobStatus, tenant string, req SearchRequest, created time.Time, ck *search.Checkpoint) {
	jm.mu.Lock()
	j := jm.journal
	jm.mu.Unlock()
	if j == nil {
		return
	}
	rec := journalRecord{ID: id, Tenant: tenant, Status: status, Request: req, Created: created, Checkpoint: ck}
	if err := j.Put(id, rec); err != nil {
		jm.mu.Lock()
		jm.journalErrs++
		jm.mu.Unlock()
		jm.flight().Record(obs.SevError, "journal.error", err.Error(),
			map[string]string{"id": id, "op": "put"})
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
	jm.journal = j
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
		jctx, cancel := context.WithCancel(jm.baseCtx)
		job := &Job{
			ID:         rec.ID,
			Status:     JobQueued,
			Tenant:     rec.Tenant,
			Request:    rec.Request,
			Created:    rec.Created,
			ctx:        jctx,
			cancel:     cancel,
			done:       make(chan struct{}),
			stream:     obs.NewStream[ProgressEvent](progressRing),
			trace:      obs.NewTrace(rec.ID, "search-job"),
			checkpoint: rec.Checkpoint,
			resume:     rec.Checkpoint,
			tin:        jm.tenantFor(rec.Tenant),
		}
		jm.mu.Lock()
		if _, exists := jm.jobs[job.ID]; exists || jm.baseCtx.Err() != nil {
			jm.mu.Unlock()
			cancel()
			continue
		}
		jm.enqueueLocked(job)
		jm.submitted++
		jm.recovered++
		jm.mu.Unlock()
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
	job, ok := jm.jobs[id]
	if !ok {
		jm.mu.Unlock()
		return Job{}, fmt.Errorf("service: unknown job %q", id)
	}
	if jm.baseCtx.Err() != nil || jm.draining {
		jm.mu.Unlock()
		return Job{}, errShuttingDown
	}
	if !job.resumable() {
		status := job.Status
		jm.mu.Unlock()
		return Job{}, fmt.Errorf("service: job %s is %s and cannot be resumed", id, status)
	}
	if len(jm.pending) >= jm.queueCap {
		jm.mu.Unlock()
		return Job{}, ErrQueueFull
	}
	jctx, cancel := context.WithCancel(jm.baseCtx)
	job.ctx, job.cancel = jctx, cancel
	job.done = make(chan struct{})
	job.stream = obs.NewStream[ProgressEvent](progressRing)
	job.trace = obs.NewTrace(id, "search-job")
	job.Status = JobQueued
	job.Error = ""
	job.Result = nil
	job.Started, job.Finished = time.Time{}, time.Time{}
	job.resume = job.checkpoint
	jm.pending = append(jm.pending, job)
	jm.cond.Signal()
	jm.submitted++
	snap := copyJob(job)
	ck := job.checkpoint
	jm.mu.Unlock()
	job.tin.accepted()
	jm.flight().Record(obs.SevInfo, "job.resume", "search job re-enqueued from its checkpoint",
		map[string]string{"id": snap.ID, "tenant": tenantLabel(snap.Tenant)})
	jm.journalPut(snap.ID, snap.Status, snap.Tenant, snap.Request, snap.Created, ck)
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

// Drain gracefully stops the manager for shutdown: it stops admissions,
// cancels every non-terminal job — running searchers observe the cancel
// within one iteration and emit a final boundary checkpoint — waits for
// them to finalize, and then shuts the worker pool down. Because drain
// mode leaves journal records in place, a subsequent EnableJournal in a
// new process resumes the drained jobs from those checkpoints; SIGTERM
// therefore suspends in-flight work instead of discarding it.
func (jm *JobManager) Drain(ctx context.Context) error {
	jm.BeginDrain()
	jm.mu.Lock()
	var waits []chan struct{}
	for _, job := range jm.jobs {
		if !job.Status.Terminal() {
			job.cancel()
			waits = append(waits, job.done)
		}
	}
	jm.mu.Unlock()
	for _, done := range waits {
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return jm.Shutdown(ctx)
}

// ErrQueueFull is returned by Submit when the pending queue is at
// capacity; HTTP maps it to 503 so clients can back off and retry.
var ErrQueueFull = errors.New("service: job queue is full")

var errShuttingDown = errors.New("service: shutting down")

// algorithm resolves the request's workload: a registered name, or an
// inline einsum spec compiled on the fly.
func (req *SearchRequest) algorithm() (*loopnest.Algorithm, error) {
	if (req.Algo == "") == (req.Einsum == "") {
		return nil, fmt.Errorf("service: exactly one of algo or einsum is required (registered workloads: %s)",
			strings.Join(workload.Names(), ", "))
	}
	if req.Einsum != "" {
		algo, err := workload.CompileInline(req.Einsum)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		return algo, nil
	}
	algo, err := loopnest.AlgorithmByName(req.Algo)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	return algo, nil
}

// Validate checks a request without running it.
func (req *SearchRequest) Validate() error {
	algo, err := req.algorithm()
	if err != nil {
		return err
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
		return fmt.Errorf("service: exactly one of problem, shape, or dims is required (algorithm %s has dims %s)",
			algo.Name, strings.Join(algo.DimNames, ","))
	}
	if _, err := search.ParseObjective(req.Objective); err != nil {
		return err
	}
	if req.Parallelism < 0 {
		return fmt.Errorf("service: negative parallelism %d", req.Parallelism)
	}
	if req.TimeoutMS < 0 {
		return fmt.Errorf("service: negative timeout_ms %d", req.TimeoutMS)
	}
	if !costmodel.Registered(req.CostModel) {
		return fmt.Errorf("service: unknown cost model %q (registered: %s)",
			req.CostModel, strings.Join(costmodel.Names(), ", "))
	}
	if _, err := req.budget(); err != nil {
		return err
	}
	name := strings.ToLower(req.Searcher)
	switch name {
	case "", "mm":
		if req.Model == "" {
			return errors.New("service: the mm searcher needs a model (an artifact ID, a file name, or \"auto\") or pick sa/ga/rl/random")
		}
		if err := validName(req.Model); err != nil {
			return err
		}
	case "sa", "ga", "rl", "random":
	default:
		return fmt.Errorf("service: unknown searcher %q (want mm, sa, ga, rl, random)", req.Searcher)
	}
	if req.TrainOnMiss != nil {
		if req.Model != "auto" {
			return errors.New("service: train_on_miss requires \"model\": \"auto\"")
		}
		treq := req.trainRequest()
		if err := treq.Validate(); err != nil {
			return fmt.Errorf("service: train_on_miss: %w", err)
		}
	}
	return nil
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

// maxTrajectorySamples bounds how many non-improving trajectory points a
// service job retains: beyond it the budget gets a TrajectoryStride so a
// million-eval job holds thousands, not millions, of Samples (improvements
// are always recorded regardless).
const maxTrajectorySamples = 8192

// budget converts the request's limits into a search.Budget, deriving a
// trajectory stride for large evaluation budgets.
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
	if b.MaxEvals > maxTrajectorySamples {
		b.TrajectoryStride = (b.MaxEvals + maxTrajectorySamples - 1) / maxTrajectorySamples
	} else if b.MaxEvals == 0 && b.MaxTime > 0 {
		// Time-only budget: no eval count to derive a stride from, but
		// a ga or sa job on the analytical cost model sustains over 1e5
		// evals/s on a 2-vCPU host, so a long wall-clock job can record
		// tens of millions of samples. Thin against a rate estimate
		// above that; improvements are always recorded, so an
		// overestimate only makes the trajectory sparser.
		const evalsPerSecondEstimate = 160_000
		if est := int(b.MaxTime.Seconds() * evalsPerSecondEstimate); est > maxTrajectorySamples {
			b.TrajectoryStride = (est + maxTrajectorySamples - 1) / maxTrajectorySamples
		}
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
		all, err := loopnest.Table1Problems()
		if err != nil {
			return loopnest.Problem{}, err
		}
		for _, p := range all {
			if p.Name == req.Problem && p.Algo.Name == algo.Name {
				return p, nil
			}
		}
		return loopnest.Problem{}, fmt.Errorf("service: problem %q not found for %s", req.Problem, algo.Name)
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

// newJobID returns a random 128-bit hex job id.
func newJobID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return hex.EncodeToString(b[:])
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
	if err := req.Validate(); err != nil {
		return Job{}, err
	}
	ti := jm.tenantFor(tenant)
	// Atlas exact-hit check, before admission: a stored answer consumes no
	// worker or queue slot, so atlas hits bypass quota and queue entirely.
	var aid *atlasIdentity
	if at := jm.atlasRef(); at != nil {
		start := time.Now()
		job, id, served := jm.tryAtlasServe(at, tenant, ti, &req)
		aid = id
		jm.observeAtlasLookup(time.Since(start))
		if served {
			return job, nil
		}
	}
	adm := jm.admissionCtrl()
	admitted := false
	if adm != nil {
		d := adm.Admit(tenant)
		if !d.OK {
			kind, sev := "admission.reject", obs.SevWarn
			if d.Code == 503 {
				kind = "admission.shed"
			}
			jm.flight().Record(sev, kind, d.Reason,
				map[string]string{"tenant": tenantLabel(tenant), "code": fmt.Sprint(d.Code)})
			return Job{}, &AdmissionError{Decision: d}
		}
		admitted = true
	}
	jctx, cancel := context.WithCancel(jm.baseCtx)
	id := newJobID()
	job := &Job{
		ID:       id,
		Status:   JobQueued,
		Tenant:   tenant,
		Request:  req,
		Created:  time.Now(),
		ctx:      jctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		stream:   obs.NewStream[ProgressEvent](progressRing),
		trace:    obs.NewTrace(id, "search-job"),
		admitted: admitted,
		atlasID:  aid,
		tin:      ti,
	}
	// Enqueue and register atomically: a worker popping the job
	// immediately still finds it registered because runJob takes the same
	// lock first. The shutdown check lives in the same critical section as
	// Shutdown's finalize loop, so a job can never be registered after
	// that loop has run.
	jm.mu.Lock()
	if jm.baseCtx.Err() != nil || jm.draining {
		jm.mu.Unlock()
		if admitted {
			adm.Release(tenant)
		}
		cancel()
		return Job{}, errShuttingDown
	}
	if len(jm.pending) >= jm.queueCap {
		jm.mu.Unlock()
		if admitted {
			adm.Release(tenant)
		}
		cancel()
		jm.flight().Record(obs.SevWarn, "queue.full", "submission rejected: pending queue at capacity",
			map[string]string{"tenant": tenantLabel(tenant)})
		return Job{}, ErrQueueFull
	}
	jm.enqueueLocked(job)
	jm.submitted++
	snap := copyJob(job)
	jm.mu.Unlock()
	ti.accepted()
	jm.flight().Record(obs.SevInfo, "job.submit", "search job queued",
		map[string]string{"id": job.ID, "tenant": tenantLabel(tenant)})
	jm.journalPut(job.ID, snap.Status, snap.Tenant, snap.Request, snap.Created, nil)
	return snap, nil
}

// observeAtlasLookup records one atlas lookup's latency (no-op before
// Instrument).
func (jm *JobManager) observeAtlasLookup(d time.Duration) {
	if in := jm.instruments(); in != nil && in.atlasLookup != nil {
		in.atlasLookup.Observe(d.Seconds())
	}
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
	in := jm.instruments()
	if in == nil || result == nil || result.Convergence == nil {
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
		in.reg.HistogramWith("search_convergence_evals_to_10pct",
			"Evaluations until the best-so-far came within 10% of the run's final best, by workload and atlas assist.",
			obs.ExpBuckets(1, 2, 16), names, vals).Observe(float64(conv.EvalsToWithin10Pct))
	}
	in.reg.HistogramWith("search_convergence_stall_fraction",
		"Fraction of the budget spent after the last improvement, by workload and atlas assist.",
		stallFractionBuckets, names, vals).Observe(conv.StallFraction)
	if conv.Stalled {
		in.reg.CounterWith("search_convergence_stalled_total",
			"Finished jobs that spent at least half their budget past the last improvement.",
			names, vals).Inc()
	}
}

// tryAtlasServe attempts the exact-hit read path for a validated request:
// when the atlas holds a solved mapping for the request's exact identity,
// a synthetic already-done job carrying that mapping (Result.Source
// "atlas") is registered and returned — no search runs, no admission slot
// or queue capacity is consumed. The resolved identity is returned either
// way so the fallthrough search job can reuse it for warm start and
// write-back.
func (jm *JobManager) tryAtlasServe(at *atlas.Atlas, tenant string, ti *tenantInstruments, req *SearchRequest) (Job, *atlasIdentity, bool) {
	aid, err := req.atlasIdentity()
	if err != nil {
		return Job{}, nil, false // Validate passed; let the real path re-report
	}
	e, m, ok, err := at.Lookup(aid.key)
	if err != nil || !ok {
		return Job{}, aid, false
	}
	// Rebuild the target space and verify membership: an entry published
	// under drifted mapspace constants must fall through to a real search
	// (atlas GC with a staleness predicate reaps such entries).
	algo, err := req.algorithm()
	if err != nil {
		return Job{}, aid, false
	}
	prob, err := req.resolveProblem(algo)
	if err != nil {
		return Job{}, aid, false
	}
	space, err := mapspace.New(arch.Default(len(algo.Tensors)-1), prob)
	if err != nil {
		return Job{}, aid, false
	}
	if err := space.IsMember(&m); err != nil {
		return Job{}, aid, false
	}
	id := newJobID()
	jctx, cancel := context.WithCancel(jm.baseCtx)
	now := time.Now()
	job := &Job{
		ID:       id,
		Status:   JobDone,
		Tenant:   tenant,
		Request:  *req,
		Created:  now,
		Started:  now,
		Finished: now,
		Result: &JobResult{
			Method:   e.Method,
			Source:   "atlas",
			BestEDP:  e.BestEDP,
			Mapping:  m.String(),
			LoopNest: space.RenderLoopNest(&m),
		},
		ctx:     jctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		stream:  obs.NewStream[ProgressEvent](progressRing),
		trace:   obs.NewTrace(id, "search-job"),
		atlasID: aid,
		tin:     ti,
	}
	job.trace.Root().Set("source", "atlas")
	job.trace.Root().Set("atlas_entry", e.ID)
	job.trace.Root().Set("status", string(JobDone))
	job.trace.End()
	job.stream.Publish(ProgressEvent{Status: JobDone, BestEDP: e.BestEDP})
	job.stream.Close()
	cancel()
	close(job.done)
	jm.mu.Lock()
	if jm.baseCtx.Err() != nil || jm.draining {
		jm.mu.Unlock()
		return Job{}, aid, false
	}
	jm.jobs[id] = job
	jm.order = append(jm.order, id)
	jm.submitted++
	jm.completed++
	jm.atlasHits++
	jm.sloDone.Add(1)
	jm.evictTerminalLocked()
	snap := copyJob(job)
	jm.mu.Unlock()
	ti.atlasServed()
	jm.flight().Record(obs.SevInfo, "job.atlas-hit", "request served from the atlas",
		map[string]string{"id": id, "tenant": tenantLabel(tenant)})
	return snap, aid, true
}

// enqueueLocked appends the job to the pending FIFO, registers it, and
// wakes one worker. Callers hold jm.mu.
func (jm *JobManager) enqueueLocked(job *Job) {
	jm.pending = append(jm.pending, job)
	jm.jobs[job.ID] = job
	jm.order = append(jm.order, job.ID)
	jm.cond.Signal()
}

// releaseAdmitted returns the job's admission slot, at most once. Callers
// hold jm.mu (the admission controller's own lock is a leaf below it).
func (jm *JobManager) releaseAdmitted(job *Job) {
	if job.admitted && jm.admission != nil {
		jm.admission.Release(job.Tenant)
	}
	job.admitted = false
}

// Get returns a snapshot of the job with the given id.
func (jm *JobManager) Get(id string) (Job, bool) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	job, ok := jm.jobs[id]
	if !ok {
		return Job{}, false
	}
	return copyJob(job), true
}

// List returns snapshots of all jobs in submission order.
func (jm *JobManager) List() []Job {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	out := make([]Job, 0, len(jm.order))
	for _, id := range jm.order {
		if job, ok := jm.jobs[id]; ok {
			out = append(out, copyJob(job))
		}
	}
	return out
}

// Cancel stops a queued or running job. Queued jobs are removed from the
// pending FIFO and finalized immediately — their queue slot and admission
// slot free at once, so capacity under a saturated queue recycles without
// waiting for a worker. Running jobs have their context cancelled and
// finalize when the searcher observes it (within one evaluation). It
// returns the post-cancel snapshot, or ok=false for an unknown id.
// Cancelling a terminal job is a no-op.
func (jm *JobManager) Cancel(id string) (Job, bool) {
	jm.mu.Lock()
	job, ok := jm.jobs[id]
	if !ok {
		jm.mu.Unlock()
		return Job{}, false
	}
	if job.Status == JobQueued {
		jm.dequeueLocked(job)
		jm.finishLocked(job, JobCancelled, nil, nil)
		snap := copyJob(job)
		jm.mu.Unlock()
		return snap, true
	}
	cancel := job.cancel
	jm.mu.Unlock()
	cancel() // the worker observes this and finalizes the job
	return jm.Get(id)
}

// dequeueLocked removes the job from the pending FIFO if it is still
// there. Callers hold jm.mu.
func (jm *JobManager) dequeueLocked(job *Job) {
	for i, p := range jm.pending {
		if p == job {
			jm.pending = append(jm.pending[:i], jm.pending[i+1:]...)
			return
		}
	}
}

// Wait blocks until the job reaches a terminal status or ctx expires.
func (jm *JobManager) Wait(ctx context.Context, id string) (Job, error) {
	jm.mu.Lock()
	job, ok := jm.jobs[id]
	jm.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("service: unknown job %q", id)
	}
	select {
	case <-job.done:
		return jm.snapshot(id), nil
	case <-ctx.Done():
		return jm.snapshot(id), ctx.Err()
	}
}

// snapshot returns a copy of the job under the manager lock.
func (jm *JobManager) snapshot(id string) Job {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if job, ok := jm.jobs[id]; ok {
		return copyJob(job)
	}
	return Job{}
}

func copyJob(j *Job) Job {
	c := *j
	c.cancel = nil
	c.done = nil
	c.checkpoint = nil
	c.resume = nil
	if j.checkpoint != nil {
		c.CheckpointEval = j.checkpoint.Eval
	}
	c.Resumable = j.resumable()
	if j.Result != nil {
		r := *j.Result
		r.Trajectory = append([]TrajectoryPoint(nil), j.Result.Trajectory...)
		c.Result = &r
	}
	return c
}

// worker drains the pending FIFO until shutdown. Jobs still queued when
// shutdown begins are left for Shutdown's finalize loop.
func (jm *JobManager) worker() {
	defer jm.wg.Done()
	for {
		jm.mu.Lock()
		for len(jm.pending) == 0 && jm.baseCtx.Err() == nil {
			jm.cond.Wait()
		}
		if jm.baseCtx.Err() != nil {
			jm.mu.Unlock()
			return
		}
		job := jm.pending[0]
		jm.pending = jm.pending[1:]
		jm.mu.Unlock()
		jm.runJob(job)
	}
}

// runJob executes one job end to end and finalizes its record.
func (jm *JobManager) runJob(job *Job) {
	jm.mu.Lock()
	ctx := job.ctx
	if job.Status.Terminal() { // cancelled while queued (shutdown race)
		jm.mu.Unlock()
		return
	}
	if ctx.Err() != nil { // shutdown began while queued
		jm.finishLocked(job, JobCancelled, nil, nil)
		jm.mu.Unlock()
		return
	}
	job.Status = JobRunning
	job.Started = time.Now()
	wait := job.Started.Sub(job.Created)
	job.trace.Root().Set("queue_wait_ms", float64(wait.Microseconds())/1e3)
	// The anytime deadline: the client's timeout_ms clamped to the
	// server's ceiling (which also applies on its own). It layers over
	// the cancellable job context, so the finish path can tell deadline
	// expiry (degraded completion) from cancellation by which context
	// carries the error.
	timeout := time.Duration(job.Request.TimeoutMS) * time.Millisecond
	if jm.maxJobTime > 0 && (timeout <= 0 || timeout > jm.maxJobTime) {
		timeout = jm.maxJobTime
	}
	jm.mu.Unlock()
	if in := jm.instruments(); in != nil {
		in.queueWait.Observe(wait.Seconds())
	}
	job.stream.Publish(ProgressEvent{Status: JobRunning})

	runCtx := ctx
	if timeout > 0 {
		var cancelTimeout context.CancelFunc
		runCtx, cancelTimeout = context.WithTimeout(ctx, timeout)
		defer cancelTimeout()
	}
	res, space, err := jm.execute(runCtx, job)
	if in := jm.instruments(); in != nil {
		in.run.Observe(time.Since(job.Started).Seconds())
	}
	// Deadline expiry with the job context intact is the anytime path;
	// searchers observe it as cancellation and return best-so-far with a
	// nil error, so err != nil here always means a genuine failure.
	deadlined := errors.Is(runCtx.Err(), context.DeadlineExceeded) && ctx.Err() == nil

	jm.mu.Lock()
	result := buildResult(res, space)
	if result != nil && job.atlasSeeded {
		result.Source = "atlas-neighbor"
	}
	jm.mu.Unlock()
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
	switch {
	case err != nil && ctx.Err() != nil:
		// Treat errors after cancellation as cancellation.
		jm.finishLocked(job, JobCancelled, nil, nil)
	case err != nil:
		jm.finishLocked(job, JobFailed, nil, err)
	case ctx.Err() != nil:
		jm.finishLocked(job, JobCancelled, result, nil)
	case deadlined:
		if result != nil {
			result.Degraded = true
			jm.degraded++
			jm.finishLocked(job, JobDone, result, nil)
		} else {
			jm.finishLocked(job, JobFailed, nil,
				fmt.Errorf("service: deadline (%v) expired before any evaluation completed", timeout))
		}
	default:
		jm.finishLocked(job, JobDone, result, nil)
	}
	jm.mu.Unlock()
}

// jobAtlasID returns the job's cached atlas identity, computing it for
// jobs that never passed through the submit-path lookup (journal-recovered
// jobs in a process that enabled the atlas).
func (jm *JobManager) jobAtlasID(job *Job) *atlasIdentity {
	jm.mu.Lock()
	aid := job.atlasID
	req := job.Request
	jm.mu.Unlock()
	if aid != nil {
		return aid
	}
	aid, err := req.atlasIdentity()
	if err != nil {
		return nil
	}
	jm.mu.Lock()
	if job.atlasID == nil {
		job.atlasID = aid
	}
	aid = job.atlasID
	jm.mu.Unlock()
	return aid
}

// atlasWriteback publishes a completed job's best mapping into the atlas
// (only-if-better per key), so the atlas self-populates from live
// traffic. Runs outside jm.mu — publishing stages and renames files —
// and before the job is marked terminal, so write-backs are visible to
// anyone who observes the job done.
func (jm *JobManager) atlasWriteback(job *Job, res *search.Result) {
	jm.mu.Lock()
	at, readonly, source := jm.atlasStore, jm.atlasRO, jm.atlasSource
	jm.mu.Unlock()
	if at == nil || readonly {
		return
	}
	if res == nil || res.Evals == 0 || len(res.Best.Spatial) == 0 || math.IsInf(res.BestEDP, 0) {
		return
	}
	aid := jm.jobAtlasID(job)
	if aid == nil {
		return
	}
	e := atlas.Entry{
		Key:       aid.key,
		Family:    aid.family,
		Algo:      aid.algo,
		AlgoFP:    aid.algoFP,
		ArchFP:    aid.archFP,
		CostModel: aid.costModel,
		Objective: aid.objective,
		Shape:     aid.shape,
		BestEDP:   res.BestEDP,
		Evals:     res.Evals,
		Method:    res.Method,
		Source:    source,
	}
	if _, published, err := at.Publish(e, &res.Best); err == nil && published {
		jm.mu.Lock()
		jm.atlasWritebacks++
		jm.mu.Unlock()
	}
}

// DefaultJobRetention is how many finished jobs the manager keeps
// queryable before evicting the oldest; without a bound a long-running
// server would accumulate every result (and its trajectory) forever.
const DefaultJobRetention = 1024

// SetJobRetention overrides the terminal-job retention bound (minimum 1).
func (jm *JobManager) SetJobRetention(n int) {
	if n < 1 {
		n = 1
	}
	jm.mu.Lock()
	jm.retention = n
	jm.evictTerminalLocked()
	jm.mu.Unlock()
}

// finishLocked moves a job to a terminal state. Callers hold jm.mu.
func (jm *JobManager) finishLocked(job *Job, status JobStatus, result *JobResult, err error) {
	if job.Status.Terminal() {
		return
	}
	job.Status = status
	job.Finished = time.Now()
	job.Result = result
	if err != nil {
		job.Error = err.Error()
	}
	switch status {
	case JobDone:
		jm.completed++
		jm.sloDone.Add(1)
	case JobFailed:
		jm.failed++
		jm.sloFailed.Add(1)
	case JobCancelled:
		jm.cancelled++
	}
	job.tin.finished(job, status, result)
	// Flight-recorder entry for the terminal transition. Record is a leaf
	// mutex, safe under jm.mu; instruments were resolved at submit.
	if jm.flightRec != nil {
		sev, msg := obs.SevInfo, "search job finished"
		switch {
		case status == JobFailed:
			sev, msg = obs.SevError, job.Error
		case status == JobCancelled:
			msg = "search job cancelled"
		case result != nil && result.Degraded:
			sev, msg = obs.SevWarn, "search job completed degraded at its anytime deadline"
		}
		jm.flightRec.Record(sev, "job.finish", msg, map[string]string{
			"id": job.ID, "tenant": tenantLabel(job.Tenant), "status": string(status)})
	}
	// Final event carries the terminal status, then the stream closes so
	// SSE watchers see end-of-stream rather than hanging. The stream's own
	// mutex is a leaf, so publishing under jm.mu cannot deadlock.
	job.trace.Root().Set("status", string(status))
	job.trace.End()
	ev := ProgressEvent{Status: status, Error: job.Error}
	if result != nil {
		ev.Eval = result.Evals
		ev.BestEDP = result.BestEDP
		ev.ElapsedMS = result.ElapsedMS
		if result.ElapsedMS > 0 {
			ev.EvalsPerSec = float64(result.Evals) / (result.ElapsedMS / 1e3)
		}
	}
	job.stream.Publish(ev)
	job.stream.Close()
	job.cancel() // release the context
	close(job.done)
	jm.releaseAdmitted(job)
	// Journal bookkeeping: a terminal job's record is deleted — unless the
	// manager is draining, in which case records stay in place so the next
	// process recovers and resumes the drained jobs from their last
	// checkpoints. The write is tiny (and idempotent), so doing it under
	// jm.mu keeps finish ordering deterministic for the recovery tests.
	if jm.journal != nil && !jm.draining {
		if err := jm.journal.Delete(job.ID); err != nil {
			jm.journalErrs++
			jm.flightRec.Record(obs.SevError, "journal.error", err.Error(),
				map[string]string{"id": job.ID, "op": "delete"})
		}
	}
	jm.evictTerminalLocked()
}

// Watch subscribes to a job's live progress stream: the recent history
// (oldest first), a channel of subsequent events, and a cancel function
// the caller must invoke when done. The channel closes when the job
// reaches a terminal status (or on cancel). Terminal jobs return their
// retained history and an already-closed channel.
func (jm *JobManager) Watch(id string) ([]ProgressEvent, <-chan ProgressEvent, func(), bool) {
	jm.mu.Lock()
	job, ok := jm.jobs[id]
	jm.mu.Unlock()
	if !ok {
		return nil, nil, nil, false
	}
	hist, ch, cancel := job.stream.Subscribe(16)
	return hist, ch, cancel, true
}

// TraceSnapshot renders a job's span tree (queue wait, model resolution,
// search strides); running spans report duration so far.
func (jm *JobManager) TraceSnapshot(id string) (obs.SpanSnapshot, bool) {
	jm.mu.Lock()
	job, ok := jm.jobs[id]
	jm.mu.Unlock()
	if !ok {
		return obs.SpanSnapshot{}, false
	}
	return job.trace.Snapshot(), true
}

// Events returns a job's retained progress-event history (oldest first).
func (jm *JobManager) Events(id string) ([]ProgressEvent, bool) {
	jm.mu.Lock()
	job, ok := jm.jobs[id]
	jm.mu.Unlock()
	if !ok {
		return nil, false
	}
	return job.stream.History(), true
}

// evictTerminalLocked drops the oldest terminal jobs beyond the retention
// bound. Queued and running jobs are never evicted. Callers hold jm.mu.
func (jm *JobManager) evictTerminalLocked() {
	terminal := 0
	for _, job := range jm.jobs {
		if job.Status.Terminal() {
			terminal++
		}
	}
	if terminal <= jm.retention {
		return
	}
	kept := jm.order[:0]
	for _, id := range jm.order {
		job, ok := jm.jobs[id]
		if !ok {
			continue
		}
		if terminal > jm.retention && job.Status.Terminal() {
			delete(jm.jobs, id)
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	jm.order = kept
}

// evalTimingSample is the WithTiming sampling period for per-backend eval
// latency histograms: two clock reads (~50ns) every 64th ~300ns evaluation
// amortizes to under a nanosecond per eval, keeping search throughput
// within noise of the uninstrumented path.
const evalTimingSample = 64

// execute runs the search described by job.Request under ctx, recording
// model-resolution and search spans on the job's trace and publishing
// live progress to its event stream.
func (jm *JobManager) execute(ctx context.Context, job *Job) (*search.Result, *mapspace.Space, error) {
	jm.mu.Lock()
	resume := job.resume
	job.resume = nil // consumed: a later Resume re-arms it from job.checkpoint
	checkpointEvery := jm.checkpointEvery
	jm.mu.Unlock()
	req := &job.Request
	root := job.trace.Root()
	algo, err := req.algorithm()
	if err != nil {
		return nil, nil, err
	}
	prob, err := req.resolveProblem(algo)
	if err != nil {
		return nil, nil, err
	}
	a := arch.Default(len(algo.Tensors) - 1)
	space, err := mapspace.New(a, prob)
	if err != nil {
		return nil, nil, err
	}
	// Atlas nearest-neighbor warm start: on an exact-key miss the mm
	// descent starts from the closest solved same-family shape, its
	// mapping re-projected into this problem's space. Resumed jobs keep
	// their checkpointed chains instead (SeedMapping is inert under
	// Resume, so counting them cold would be wrong too).
	var seedMapping *mapspace.Mapping
	if at := jm.atlasRef(); at != nil && resume == nil {
		aid := jm.jobAtlasID(job)
		name := strings.ToLower(req.Searcher)
		if aid != nil && (name == "" || name == "mm") {
			if e, nm, dist, ok, nerr := at.Nearest(aid.family, prob.Shape); nerr == nil && ok {
				seed := space.Reproject(&nm)
				seedMapping = &seed
				root.Set("atlas_seed", e.ID)
				root.Set("atlas_seed_distance", dist)
			}
		}
		jm.mu.Lock()
		if seedMapping != nil {
			jm.atlasNeighbors++
			job.atlasSeeded = true
		} else {
			jm.atlasCold++
		}
		jm.mu.Unlock()
	}
	model, err := costmodel.New(req.CostModel, a, prob)
	if err != nil {
		return nil, nil, err
	}
	bound, err := oracle.Compute(a, prob)
	if err != nil {
		return nil, nil, err
	}
	obj, err := search.ParseObjective(req.Objective)
	if err != nil {
		return nil, nil, err
	}
	budget, err := req.budget()
	if err != nil {
		return nil, nil, err
	}
	// Model resolution covers registry loads and, for "auto" with
	// train_on_miss, the wait on a shared training run.
	resolveSpan := root.StartChild("resolve-model")
	searcher, closeQueries, err := jm.searcher(ctx, req, algo)
	resolveSpan.End()
	if err != nil {
		return nil, nil, err
	}
	// Deregister this job's batcher client as soon as the search returns:
	// the batcher's anti-stall rule flushes when every registered client is
	// waiting, so a finished job must not linger in that count.
	defer closeQueries()
	parallelism := req.Parallelism
	if parallelism > MaxParallelism {
		parallelism = MaxParallelism
	}
	evaluator := costmodel.Evaluator(model)
	if f := jm.faultsInjector(); f != nil {
		// Fault injection sits directly on the backend with retry outside
		// it, so injected transients are absorbed the way real ones would
		// be; a spike that exhausts the retry budget still fails the job.
		evaluator = costmodel.WithRetry(costmodel.WithFaults(evaluator, f), resilience.DefaultRetry)
	}
	if hist := jm.evalHistFor(model.Name()); hist != nil {
		evaluator = costmodel.WithTiming(evaluator, evalTimingSample, hist.ObserveDuration)
	}
	searchSpan := root.StartChild("search")
	searchSpan.Set("searcher", strings.ToLower(req.Searcher))
	// One child span per recorded trajectory sample (improvements plus
	// stride boundaries); Span's child cap bounds the tree for long jobs.
	var strideSpan *obs.Span
	firstSample := true
	sctx := &search.Context{
		Space:       space,
		Model:       evaluator,
		Bound:       bound,
		Seed:        req.Seed,
		Objective:   obj,
		Ctx:         ctx,
		Cache:       jm.cacheFor(job.tin),
		Evals:       jm.counterFor(model.Name()),
		Parallelism: parallelism,
		Resume:      resume,
		SeedMapping: seedMapping,
		// Checkpoints always flow to the in-memory job record (enabling
		// resume without a journal) and, when journaling is on, to disk.
		CheckpointEvery: checkpointEvery,
		Checkpoint: func(c *search.Checkpoint) {
			ck := c.Clone()
			jm.mu.Lock()
			job.checkpoint = ck
			tenant, creq, created := job.Tenant, job.Request, job.Created
			jm.mu.Unlock()
			jm.journalPut(job.ID, JobRunning, tenant, creq, created, ck)
		},
		Progress: func(p search.Progress) {
			if firstSample {
				// Progress runs on the job's worker goroutine, so the flag
				// needs no lock; job.Started was set before execute began.
				firstSample = false
				if in := jm.instruments(); in != nil && in.firstEval != nil {
					in.firstEval.Observe(time.Since(job.Started).Seconds())
				}
			}
			strideSpan.End()
			strideSpan = searchSpan.StartChild("stride")
			strideSpan.Set("eval", p.Eval)
			strideSpan.Set("best_edp", p.Best)
			ev := ProgressEvent{
				Status:    JobRunning,
				Eval:      p.Eval,
				BestEDP:   p.Best,
				ElapsedMS: float64(p.Elapsed.Microseconds()) / 1e3,
				Improved:  p.Improved,
			}
			if p.Elapsed > 0 {
				ev.EvalsPerSec = float64(p.Eval) / p.Elapsed.Seconds()
			}
			job.stream.Publish(ev)
		},
	}
	res, err := searcher.Search(sctx, budget)
	strideSpan.End()
	searchSpan.End()
	if err != nil {
		return nil, nil, err
	}
	searchSpan.Set("evals", res.Evals)
	return &res, space, nil
}

// searcher builds the requested search method, pulling the shared
// surrogate from the registry for mm and checking it matches the resolved
// workload by name and (when stamped) by fingerprint. "auto" models
// resolve through the store by workload fingerprint, training on a miss
// when the request asks for it.
//
// For mm with batching enabled, the job's surrogate queries are routed
// through the model's shared infer.Batcher via a per-job client weighted
// by the request's parallelism (fairness unit: a P-way job may fill up to
// P shares of a capped batch). The returned cleanup deregisters the
// client when the job ends — it must be called exactly once, after
// Search returns, so anti-stall accounting over the remaining jobs stays
// exact. Cleanup is never nil.
func (jm *JobManager) searcher(ctx context.Context, req *SearchRequest, algo *loopnest.Algorithm) (search.Searcher, func(), error) {
	nop := func() {}
	switch strings.ToLower(req.Searcher) {
	case "", "mm":
		name := req.Model
		if name == "auto" {
			id, err := jm.resolveAuto(ctx, req, algo)
			if err != nil {
				return nil, nop, err
			}
			name = id
		}
		sur, err := jm.registry.Get(name)
		if err != nil {
			return nil, nop, err
		}
		if sur.AlgoName != algo.Name {
			return nil, nop, fmt.Errorf("service: model %q was trained for %s, request targets %s",
				name, sur.AlgoName, algo.Name)
		}
		if sur.AlgoFP != "" && sur.AlgoFP != algo.Fingerprint() {
			return nil, nop, fmt.Errorf("service: model %q was trained for workload %s with fingerprint %.12s…, the requested definition has %.12s…",
				name, sur.AlgoName, sur.AlgoFP, algo.Fingerprint())
		}
		mm := search.MindMappings{Surrogate: sur}
		if b := jm.batcherFor(name, sur); b.Enabled() {
			weight := req.Parallelism
			if weight > MaxParallelism {
				weight = MaxParallelism
			}
			client := b.Register(ctx, weight)
			mm.Queries = client
			return mm, client.Close, nil
		}
		return mm, nop, nil
	case "sa":
		return search.SimulatedAnnealing{}, nop, nil
	case "ga":
		return search.GeneticAlgorithm{}, nop, nil
	case "rl":
		return search.RL{Hidden: 64}, nop, nil
	case "random":
		return search.RandomSearch{}, nop, nil
	}
	return nil, nop, fmt.Errorf("service: unknown searcher %q", req.Searcher)
}

// resolveAuto maps "model":"auto" to a store artifact ID: the best stored
// version whose workload fingerprint, labeling cost model, AND accelerator
// fingerprint all match the search — a surrogate approximates one specific
// f, so an artifact trained against a different backend or arch must never
// be served silently. On a miss, train_on_miss drives an on-demand
// training run (deduplicated with any equivalent run already in flight,
// and cancelled along with the search job's context) that trains against
// the request's own cost model.
func (jm *JobManager) resolveAuto(ctx context.Context, req *SearchRequest, algo *loopnest.Algorithm) (string, error) {
	store, pipe := jm.training()
	if store == nil {
		return "", errors.New(`service: "model":"auto" needs a model store (serve with -store)`)
	}
	wantCM := req.CostModel
	if wantCM == "" {
		wantCM = costmodel.DefaultBackend
	}
	wantArch := modelstore.ArchFingerprint(arch.Default(len(algo.Tensors) - 1))
	match := func(m modelstore.Manifest) bool {
		return m.CostModel == wantCM && m.ArchFP == wantArch
	}
	if m, ok := store.ResolveMatching(algo.Fingerprint(), match); ok {
		return m.ID, nil
	}
	if req.TrainOnMiss == nil || pipe == nil {
		return "", fmt.Errorf("service: no stored model for workload %s (fingerprint %.12s…) trained against cost model %q; POST /v1/train, or set train_on_miss",
			algo.Name, algo.Fingerprint(), wantCM)
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
	for _, s := range res.Trajectory {
		out.Trajectory = append(out.Trajectory, TrajectoryPoint{
			Eval:      s.Eval,
			ElapsedMS: float64(s.Elapsed.Microseconds()) / 1e3,
			BestEDP:   s.BestEDP,
		})
	}
	if conv := res.Convergence(); len(res.Trajectory) > 0 {
		out.Convergence = &conv
	}
	return out
}

// JobStats summarizes job lifecycle counts for /v1/metrics. Degraded
// counts jobs that completed at their anytime deadline with a best-so-far
// result; Recovered counts jobs re-enqueued from the journal at startup;
// JournalErrors counts journal writes that failed even after bounded
// retry.
type JobStats struct {
	Submitted     uint64 `json:"submitted"`
	Queued        int    `json:"queued"`
	Running       int    `json:"running"`
	Done          uint64 `json:"done"`
	Failed        uint64 `json:"failed"`
	Cancelled     uint64 `json:"cancelled"`
	Degraded      uint64 `json:"degraded"`
	Recovered     uint64 `json:"recovered"`
	JournalErrors uint64 `json:"journal_errors"`
}

// Stats snapshots lifecycle counters and live queue state.
func (jm *JobManager) Stats() JobStats {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	st := JobStats{
		Submitted:     jm.submitted,
		Done:          jm.completed,
		Failed:        jm.failed,
		Cancelled:     jm.cancelled,
		Degraded:      jm.degraded,
		Recovered:     jm.recovered,
		JournalErrors: jm.journalErrs,
	}
	for _, job := range jm.jobs {
		switch job.Status {
		case JobQueued:
			st.Queued++
		case JobRunning:
			st.Running++
		}
	}
	return st
}

// counterFor returns the shared paid-eval counter for a cost-model
// backend, creating it on first use. Jobs selecting the same backend share
// one counter, so /v1/metrics reports aggregate evals per backend.
func (jm *JobManager) counterFor(backend string) *costmodel.Counter {
	in := jm.instruments()
	jm.countersMu.Lock()
	defer jm.countersMu.Unlock()
	ctr, ok := jm.counters[backend]
	if !ok {
		ctr = &costmodel.Counter{}
		jm.counters[backend] = ctr
		if in != nil {
			c := ctr
			in.reg.CounterFuncWith("costmodel_evals_total",
				"Paid cost-model evaluations per backend (cache hits excluded).",
				[]string{"backend"}, []string{backend},
				func() float64 { return float64(c.Count()) })
		}
	}
	return ctr
}

// evalHistFor returns the sampled eval-latency histogram for a backend,
// registering it on first use; nil before Instrument.
func (jm *JobManager) evalHistFor(backend string) *obs.Histogram {
	in := jm.instruments()
	if in == nil {
		return nil
	}
	jm.countersMu.Lock()
	defer jm.countersMu.Unlock()
	if jm.evalHists == nil {
		jm.evalHists = make(map[string]*obs.Histogram)
	}
	h, ok := jm.evalHists[backend]
	if !ok {
		h = in.reg.HistogramWith("costmodel_eval_seconds",
			fmt.Sprintf("Sampled cost-model evaluation latency (1-in-%d sampling).", evalTimingSample),
			evalSecondsBuckets, []string{"backend"}, []string{backend})
		jm.evalHists[backend] = h
	}
	return h
}

// EvalCounts snapshots the paid reference-cost-model evaluations performed
// per backend across all jobs (cache hits are not charged). Backends that
// have not served a job yet are absent.
func (jm *JobManager) EvalCounts() map[string]int64 {
	jm.countersMu.Lock()
	defer jm.countersMu.Unlock()
	out := make(map[string]int64, len(jm.counters))
	for name, ctr := range jm.counters {
		out[name] = ctr.Count()
	}
	return out
}

// Workers returns the worker-pool size.
func (jm *JobManager) Workers() int { return jm.workers }

// QueueCap returns the pending-queue capacity.
func (jm *JobManager) QueueCap() int { return jm.queueCap }

// Shutdown cancels every job (queued and running) and waits for the
// worker pool to drain, or for ctx to expire. New submissions fail once
// shutdown has begun.
func (jm *JobManager) Shutdown(ctx context.Context) error {
	jm.stop() // cancels baseCtx, and transitively every job context
	jm.mu.Lock()
	jm.cond.Broadcast() // wake idle workers so they observe the cancel
	jm.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		jm.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return ctx.Err()
	}
	// Finalize jobs the workers never picked up.
	jm.mu.Lock()
	defer jm.mu.Unlock()
	for _, job := range jm.jobs {
		if !job.Status.Terminal() {
			jm.finishLocked(job, JobCancelled, nil, nil)
		}
	}
	return nil
}
