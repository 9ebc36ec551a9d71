// Package trainer is the online Phase-1 pipeline: a bounded worker pool —
// deliberately separate from the search JobManager's, so training load
// never starves interactive searches and vice versa — whose jobs run
// dataset generation (surrogate.GenerateWith against any registered
// cost-model backend), supervised training (surrogate.TrainWith with
// cancellation, per-epoch checkpoints, and optional warm-start transfer
// from a parent artifact of the same workload), and publication into the
// versioned modelstore. Jobs report phase/sample/epoch/loss progress live,
// cancel between mini-batches, and — because every epoch checkpoints —
// resume from where they stopped instead of starting over.
package trainer

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/jobqueue"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/modelstore"
	"mindmappings/internal/resilience"
	"mindmappings/internal/stats"
	"mindmappings/internal/surrogate"
	"mindmappings/internal/workload"

	_ "mindmappings/internal/timeloop" // register the reference cost-model backend
)

// Status is the lifecycle state of a training job, shared with search
// jobs (jobqueue.Status).
type Status = jobqueue.Status

const (
	StatusRunning   = jobqueue.Running
	StatusDone      = jobqueue.Done
	StatusFailed    = jobqueue.Failed
	StatusCancelled = jobqueue.Cancelled
)

// Phase names the stage a running job is in.
const (
	PhaseGenerate = "generate"
	PhaseTrain    = "train"
	PhasePublish  = "publish"
)

// Request is a training job description (the body of POST /v1/train).
type Request struct {
	// Algo names a registered workload; Einsum instead supplies an inline
	// index-expression spec. Exactly one of the two is required.
	Algo   string `json:"algo,omitempty"`
	Einsum string `json:"einsum,omitempty"`
	// Config picks the Phase-1 recipe baseline: tiny (default — the
	// service favors fast turnaround), small, or paper.
	Config string `json:"config,omitempty"`
	// Recipe overrides (0 / empty keeps the named config's value).
	Samples     int    `json:"samples,omitempty"`
	Epochs      int    `json:"epochs,omitempty"`
	Problems    int    `json:"problems,omitempty"`
	HiddenSizes []int  `json:"hidden_sizes,omitempty"`
	CostModel   string `json:"cost_model,omitempty"`
	// Seed drives dataset sampling and weight initialization; 0 keeps the
	// named config's default seed (seed 0 itself is not selectable — runs
	// that need it can use any other seed, the value is opaque).
	Seed int64 `json:"seed,omitempty"`
	// Name labels the published artifact (optional, descriptive only).
	Name string `json:"name,omitempty"`
	// Warm selects the warm-start parent: "" or "none" for a cold start,
	// "auto" to inherit from the store's best artifact of the same
	// workload when one is compatible (falling back to cold when not), or
	// an explicit artifact ID (which must be compatible).
	Warm string `json:"warm,omitempty"`
}

// NamedConfig resolves a Phase-1 configuration name ("" = tiny).
func NamedConfig(name string) (surrogate.Config, error) {
	switch name {
	case "", "tiny":
		return surrogate.TinyConfig(), nil
	case "small":
		return surrogate.SmallConfig(), nil
	case "paper":
		return surrogate.PaperConfig(), nil
	}
	return surrogate.Config{}, fmt.Errorf("trainer: unknown config %q (want tiny, small, or paper)", name)
}

// algorithm resolves the request's workload.
func (req *Request) algorithm() (*loopnest.Algorithm, error) {
	algo, err := workload.Resolve(req.Algo, req.Einsum)
	if err != nil {
		return nil, fmt.Errorf("trainer: %w", err)
	}
	return algo, nil
}

// config materializes the effective surrogate.Config.
func (req *Request) config() (surrogate.Config, error) {
	cfg, err := NamedConfig(req.Config)
	if err != nil {
		return cfg, err
	}
	if req.Samples > 0 {
		cfg.Samples = req.Samples
	}
	if req.Epochs > 0 {
		cfg.Train.Epochs = req.Epochs
	}
	if req.Problems > 0 {
		cfg.Problems = req.Problems
	}
	if len(req.HiddenSizes) > 0 {
		cfg.HiddenSizes = append([]int(nil), req.HiddenSizes...)
	}
	cfg.CostModel = req.CostModel
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	return cfg, nil
}

// Validate checks a request without running it.
func (req *Request) Validate() error {
	algo, err := req.algorithm()
	if err != nil {
		return err
	}
	cfg, err := req.config()
	if err != nil {
		return err
	}
	if n := algo.NumSampleProblems(); cfg.Problems > n {
		return fmt.Errorf("trainer: %d problems requested, but %s has only %d distinct sample problems",
			cfg.Problems, algo.Name, n)
	}
	if !costmodel.Registered(req.CostModel) {
		return fmt.Errorf("trainer: unknown cost model %q (registered: %s)",
			req.CostModel, strings.Join(costmodel.Names(), ", "))
	}
	if req.Samples < 0 || req.Epochs < 0 || req.Problems < 0 {
		return errors.New("trainer: negative recipe override")
	}
	if req.Samples > 0 && req.Samples < 10 {
		return fmt.Errorf("trainer: %d samples is too few (need >= 10)", req.Samples)
	}
	for _, h := range req.HiddenSizes {
		if h <= 0 {
			return fmt.Errorf("trainer: non-positive hidden width %d", h)
		}
	}
	return nil
}

// dedupKey canonicalizes the request fields that determine the artifact
// (everything but the label), so Ensure can join equivalent active jobs.
func (req *Request) dedupKey() string {
	c := *req
	c.Name = ""
	raw, _ := json.Marshal(&c)
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:16])
}

// Progress is the live view of a running job.
type Progress struct {
	Phase string `json:"phase,omitempty"`
	// Generation progress.
	Samples     int `json:"samples,omitempty"`
	SamplesDone int `json:"samples_done,omitempty"`
	// Training progress (Epoch = completed epochs).
	Epoch     int     `json:"epoch,omitempty"`
	Epochs    int     `json:"epochs,omitempty"`
	TrainLoss float64 `json:"train_loss,omitempty"`
	TestLoss  float64 `json:"test_loss,omitempty"`
	// Parent is the warm-start artifact actually used ("" = cold start).
	Parent string `json:"parent,omitempty"`
}

// Event is one live telemetry sample from a training job: the job's
// status plus its progress at the moment of publication. Events are
// published to Watch subscribers at every phase transition, generation
// progress update, and completed epoch; the final event carries the
// terminal status (and error, if any), after which the stream closes.
type Event struct {
	Status   Status   `json:"status"`
	Progress Progress `json:"progress"`
	Error    string   `json:"error,omitempty"`
}

// eventRing caps the per-job event history late Watch subscribers can
// replay: enough for every epoch of the paper config plus phase
// transitions, without pinning unbounded generation-progress spam. It is
// a cap, not a preallocation: a job retains the events it published, up
// to eventRing of them (112 B each).
const eventRing = 512

// Job is the pipeline-side record of one training request: the lifecycle
// fields (id, status, error, timestamps) come from the embedded
// jobqueue.Entry. Snapshots returned by the pipeline are copies; only the
// pipeline mutates the live record.
type Job struct {
	jobqueue.Entry[Event]
	Request  Request  `json:"request"`
	Progress Progress `json:"progress"`
	// Artifact is the published manifest once the job is done.
	Artifact *modelstore.Manifest `json:"artifact,omitempty"`
	// ResumedFrom is the job this one continued from, if any; Resumable
	// reports whether a checkpoint exists to continue this job from.
	ResumedFrom string `json:"resumed_from,omitempty"`
	Resumable   bool   `json:"resumable,omitempty"`

	// checkpoint holds the dataset and last completed-epoch training state
	// of an interrupted run; Resume hands it to the successor job.
	checkpoint *checkpoint
}

// event is the job's current-status Event: every progress update, the
// final event published when the job ends, and the terminal frame an SSE
// stream re-synthesizes all come from here.
func (j *Job) event() Event {
	return Event{Status: j.Status, Progress: j.Progress, Error: j.Error}
}

type checkpoint struct {
	ds     *surrogate.RawDataset
	state  *surrogate.TrainState
	parent string // warm-start parent artifact ID carried into the resume
}

// Pipeline runs training jobs on a jobqueue.Queue (the FIFO, the worker
// pool and the job table), publishing finished surrogates into the store.
// Get, List, Cancel, Wait, Watch, Events, Trace and Final come from the
// embedded jobqueue.Jobs; a cancelled job keeps the checkpoint of its last
// completed epoch for Resume.
type Pipeline struct {
	jobqueue.Jobs[Job, Event, *Job]

	store *modelstore.Store

	// publishRetry absorbs transient store.Publish failures (including
	// injected ones) so a blip at the very end of a long training run
	// does not discard it. Set before the first Submit to override.
	publishRetry resilience.RetryPolicy

	// mu guards the queue's table, the records' progress and checkpoints,
	// and the dedup map and checkpoint FIFO below; the queue's finish hook
	// runs under it.
	mu        sync.Mutex
	q         *jobqueue.Queue[Job, Event, *Job]
	active    map[string]string // dedup key -> queued/running job id
	resumable []*Job            // FIFO of terminal jobs still holding checkpoints
}

// DefaultRetention bounds how many terminal training jobs stay queryable.
const DefaultRetention = 256

// maxResumable bounds how many terminal jobs keep their checkpoints: each
// one pins a full training dataset and a network snapshot in memory.
const maxResumable = 8

// New starts a pipeline of workers goroutines (2 when <= 0 — training jobs
// are long and CPU-bound, so the pool stays small by default) draining a
// queue of at most queueCap pending jobs (16 when <= 0). Call Shutdown to
// stop the pool.
func New(store *modelstore.Store, workers, queueCap int) *Pipeline {
	if workers <= 0 {
		workers = 2
	}
	if queueCap <= 0 {
		queueCap = 16
	}
	p := &Pipeline{
		store:        store,
		publishRetry: resilience.DefaultRetry,
		active:       make(map[string]string),
	}
	p.q = jobqueue.New(&p.mu, jobqueue.Kind[Job, Event, *Job]{
		Workers:   workers,
		Cap:       queueCap,
		Retention: DefaultRetention,
		Span:      "train-job",
		Events:    eventRing,
		Full:      ErrQueueFull,
		Closed:    errShuttingDown,
		Run:       p.run,
		Event:     (*Job).event,
		Finish:    p.finish,
		Copy:      copyJob,
	})
	p.Jobs = p.q.Jobs
	return p
}

// Workers returns the worker-pool size.
func (p *Pipeline) Workers() int { return p.q.Workers() }

// ErrQueueFull is returned by Submit when the pending queue is at
// capacity; HTTP maps it to 503 so clients can back off and retry.
var ErrQueueFull = fmt.Errorf("trainer: training %w", jobqueue.ErrFull)

var errShuttingDown = fmt.Errorf("trainer: %w", jobqueue.ErrClosed)

// Submit validates and enqueues a training job, returning a snapshot.
func (p *Pipeline) Submit(req Request) (Job, error) {
	return p.submit(req, nil, "", false)
}

// Ensure is Submit with deduplication: when an equivalent job (same
// request up to the label) is already queued or running, its snapshot is
// returned instead of enqueuing a duplicate — the train-on-miss path, so a
// burst of searches for one untrained workload triggers one training run.
// The dedup check and the enqueue happen under one lock hold, so
// concurrent Ensures of one request can never race past each other.
func (p *Pipeline) Ensure(req Request) (Job, error) {
	return p.submit(req, nil, "", true)
}

// Resume continues a cancelled or failed job from its last checkpoint as a
// new job (the original stays terminal). Jobs that never completed an
// epoch restart from the dataset when it was retained, or from scratch.
func (p *Pipeline) Resume(id string) (Job, error) {
	p.mu.Lock()
	prev, ok := p.q.LookupLocked(id)
	if !ok {
		p.mu.Unlock()
		return Job{}, fmt.Errorf("trainer: %w %q", jobqueue.ErrUnknown, id)
	}
	if !prev.Status.Terminal() || prev.Status == StatusDone {
		status := prev.Status
		p.mu.Unlock()
		return Job{}, fmt.Errorf("trainer: job %q is %s, only cancelled or failed jobs resume", id, status)
	}
	var ck *checkpoint
	if prev.checkpoint != nil {
		// Copy the checkpoint record: the dataset and train state are
		// immutable once produced, but the struct's fields are overwritten
		// per epoch, so two resumed successors must not share one record.
		c := *prev.checkpoint
		ck = &c
	}
	req := prev.Request
	p.mu.Unlock()
	return p.submit(req, ck, id, false)
}

func (p *Pipeline) submit(req Request, ck *checkpoint, resumedFrom string, dedup bool) (Job, error) {
	if err := req.Validate(); err != nil {
		return Job{}, err
	}
	key := req.dedupKey()
	p.mu.Lock()
	defer p.mu.Unlock()
	if id, ok := p.active[key]; dedup && ok {
		if existing, ok := p.q.LookupLocked(id); ok {
			return p.q.SnapshotLocked(existing), nil
		}
	}
	job := &Job{Request: req, ResumedFrom: resumedFrom, checkpoint: ck}
	if err := p.q.AddLocked(job, false); err != nil {
		return Job{}, err
	}
	p.active[key] = job.ID
	return p.q.SnapshotLocked(job), nil
}

func copyJob(j *Job) Job {
	c := *j
	c.checkpoint = nil
	c.Resumable = j.Status.Terminal() && j.Status != StatusDone && j.checkpoint != nil
	if j.Artifact != nil {
		a := *j.Artifact
		c.Artifact = &a
	}
	return c
}

// run executes one training job on a queue worker and reports how it
// ended.
func (p *Pipeline) run(ctx context.Context, job *Job) (Status, error) {
	manifest, err := p.execute(ctx, job)
	switch {
	case err != nil && ctx.Err() != nil:
		return StatusCancelled, nil
	case err != nil:
		return StatusFailed, err
	}
	p.mu.Lock()
	job.Artifact = manifest
	p.mu.Unlock()
	return StatusDone, nil
}

// finish is the queue's terminal hook for training jobs, run under p.mu:
// it bounds the checkpoints kept for Resume and retires the job's dedup
// entry.
func (p *Pipeline) finish(job *Job) {
	if job.Status == StatusDone {
		job.checkpoint = nil // nothing left to resume
	} else if job.checkpoint != nil {
		// Bound resumable state: a checkpoint pins the job's whole dataset
		// plus a network snapshot, so only the most recent few
		// cancelled/failed jobs stay resumable; older ones drop their
		// checkpoints (the jobs remain queryable, just not resumable).
		p.resumable = append(p.resumable, job)
		for len(p.resumable) > maxResumable {
			p.resumable[0].checkpoint = nil
			p.resumable = p.resumable[1:]
		}
	}
	if key := job.Request.dedupKey(); p.active[key] == job.ID {
		delete(p.active, key)
	}
}

// setProgress mutates a job's progress (fn runs under the pipeline lock)
// and publishes the updated view to Watch subscribers.
func (p *Pipeline) setProgress(job *Job, fn func(*Progress)) {
	p.mu.Lock()
	fn(&job.Progress)
	ev := job.event()
	p.mu.Unlock()
	job.Stream().Publish(ev)
}

// execute runs one training job end to end: generate (or reuse the
// resumed dataset) → train (warm-started or from the checkpoint) →
// publish.
func (p *Pipeline) execute(ctx context.Context, job *Job) (*modelstore.Manifest, error) {
	req := &job.Request
	algo, err := req.algorithm()
	if err != nil {
		return nil, err
	}
	cfg, err := req.config()
	if err != nil {
		return nil, err
	}
	a := arch.Default(len(algo.Tensors) - 1)
	start := time.Now()
	root := job.Root()

	// Phase 1a: the training set. A resumed job reuses the retained
	// dataset — regeneration would be wasted cost-model work.
	var ds *surrogate.RawDataset
	var resume *surrogate.TrainState
	parent := ""
	if ck := job.checkpoint; ck != nil && ck.ds != nil {
		ds = ck.ds
		resume = ck.state
		parent = ck.parent
		root.Set("resumed_dataset", true)
		p.setProgress(job, func(pr *Progress) {
			pr.Phase = PhaseTrain
			pr.Samples = ds.Len()
			pr.SamplesDone = ds.Len()
			pr.Parent = parent
		})
	} else {
		p.setProgress(job, func(pr *Progress) {
			pr.Phase = PhaseGenerate
			pr.Samples = cfg.Samples
		})
		genSpan := root.StartChild(PhaseGenerate)
		ds, err = surrogate.GenerateWith(algo, a, cfg, surrogate.GenerateOptions{
			Ctx: ctx,
			OnProgress: func(done, total int) {
				p.setProgress(job, func(pr *Progress) { pr.SamplesDone, pr.Samples = done, total })
			},
		})
		genSpan.End()
		if err != nil {
			return nil, err
		}
		genSpan.Set("samples", ds.Len())
		p.mu.Lock()
		job.checkpoint = &checkpoint{ds: ds}
		p.mu.Unlock()
	}

	// Phase 1b: the warm-start parent, resolved once the dataset exists
	// (compatibility depends on the encoded input width).
	var warm *surrogate.Surrogate
	if resume == nil {
		warmSpan := root.StartChild("resolve-warm")
		warm, parent, err = p.resolveWarm(req, algo, cfg, ds)
		warmSpan.Set("parent", parent)
		warmSpan.End()
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		job.checkpoint.parent = parent
		p.mu.Unlock()
	}

	// Phase 2: supervised training with per-epoch progress + checkpoints.
	p.setProgress(job, func(pr *Progress) {
		pr.Phase = PhaseTrain
		pr.Epochs = cfg.Train.Epochs
		pr.Parent = parent
	})
	trainSpan := root.StartChild(PhaseTrain)
	sur, hist, err := surrogate.TrainWith(ds, cfg, surrogate.TrainOptions{
		Ctx:    ctx,
		Warm:   warm,
		Resume: resume,
		OnEpoch: func(ep surrogate.TrainEpoch) {
			p.setProgress(job, func(pr *Progress) {
				pr.Epoch, pr.TrainLoss, pr.TestLoss = ep.Epoch+1, ep.TrainLoss, ep.TestLoss
				job.checkpoint.state = ep.State
			})
		},
	})
	trainSpan.End()
	if err != nil {
		return nil, err
	}
	trainSpan.Set("epochs", len(hist.TrainLoss))

	// Phase 3: publish.
	p.setProgress(job, func(pr *Progress) { pr.Phase = PhasePublish })
	pubSpan := root.StartChild(PhasePublish)
	defer pubSpan.End()
	// Publish under bounded retry: the artifact embodies the whole
	// training run, so a transient storage fault (or an injected one)
	// here must not throw the run away.
	var manifest modelstore.Manifest
	err = p.publishRetry.Do(ctx, func() error {
		var perr error
		manifest, perr = p.store.Publish(sur, modelstore.PublishMeta{
			Name:         req.Name,
			CostModel:    effectiveBackend(req.CostModel),
			CostModelFP:  costModelFingerprint(req.CostModel, a, algo),
			Samples:      cfg.Samples,
			Problems:     cfg.Problems,
			Epochs:       len(hist.TrainLoss),
			HiddenSizes:  cfg.HiddenSizes,
			Seed:         cfg.Seed,
			Parent:       parent,
			TrainLoss:    hist.TrainLoss,
			TestLoss:     hist.TestLoss,
			TrainSeconds: time.Since(start).Seconds(),
		})
		return perr
	})
	if err != nil {
		return nil, err
	}
	pubSpan.Set("artifact", manifest.ID)
	return &manifest, nil
}

// resolveWarm picks the warm-start parent per req.Warm: none, an explicit
// artifact (incompatibility is an error), or auto (the store's best
// artifact for the workload when compatible, cold start otherwise).
func (p *Pipeline) resolveWarm(req *Request, algo *loopnest.Algorithm, cfg surrogate.Config, ds *surrogate.RawDataset) (*surrogate.Surrogate, string, error) {
	switch req.Warm {
	case "", "none":
		return nil, "", nil
	case "auto":
		// Only inherit from a parent trained against the same cost model:
		// the weights approximate that backend's f, and a run labeling with
		// a different backend should start cold rather than from a
		// systematically biased initialization.
		wantCM := effectiveBackend(req.CostModel)
		m, ok := p.store.ResolveMatching(algo.Fingerprint(), func(m modelstore.Manifest) bool {
			return m.CostModel == wantCM
		})
		if !ok {
			return nil, "", nil
		}
		sur, err := p.store.Load(m.ID)
		if err != nil {
			return nil, "", nil // unreadable parent: fall back to cold
		}
		if surrogate.CheckWarmParent(sur, ds, cfg) != nil {
			return nil, "", nil
		}
		return sur, m.ID, nil
	default:
		m, ok := p.store.Get(req.Warm)
		if !ok {
			return nil, "", fmt.Errorf("trainer: warm-start parent %q is not in the store", req.Warm)
		}
		if m.CostModel != "" && m.CostModel != effectiveBackend(req.CostModel) {
			return nil, "", fmt.Errorf("trainer: warm-start parent %q was trained against cost model %q, this run labels with %q",
				req.Warm, m.CostModel, effectiveBackend(req.CostModel))
		}
		sur, err := p.store.Load(m.ID)
		if err != nil {
			return nil, "", err
		}
		if err := surrogate.CheckWarmParent(sur, ds, cfg); err != nil {
			return nil, "", err
		}
		return sur, m.ID, nil
	}
}

// effectiveBackend normalizes an empty cost-model name to the default.
func effectiveBackend(name string) string {
	if name == "" {
		return costmodel.DefaultBackend
	}
	return name
}

// costModelFingerprint stamps the labeling backend's behavioral identity:
// the evaluator fingerprint at a deterministic probe problem of the
// workload. Best effort — an empty string when the probe fails.
func costModelFingerprint(name string, a arch.Spec, algo *loopnest.Algorithm) string {
	prob := algo.RandomProblem(stats.NewRNG(0))
	ev, err := costmodel.New(name, a, prob)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(ev.AppendFingerprint(nil))
	return hex.EncodeToString(sum[:])
}

// Shutdown cancels every job (queued and running) and waits for the
// worker pool to drain, or for ctx to expire. New submissions fail once
// shutdown has begun.
func (p *Pipeline) Shutdown(ctx context.Context) error { return p.q.Shutdown(ctx) }
