// Package search implements mapping-space search: the Mind Mappings
// gradient-based method (paper §4.2) and the black-box baselines it is
// evaluated against (§5.2, Appendix A) — simulated annealing, a genetic
// algorithm, DDPG reinforcement learning, and uniform random search.
//
// All methods run under a common budget (fixed number of cost-function
// evaluations for iso-iteration studies, fixed time for iso-time studies)
// and record best-so-far normalized-EDP trajectories, the raw data behind
// the paper's Figures 5 and 6.
//
// Searchers evaluate candidates through the pluggable costmodel layer:
// Context.Model is any costmodel.Evaluator, and the tracker draws the
// paper's line between a paid reference-model query and free offline
// scoring: a paid query charges Context.QueryLatency to the run's clock,
// counts one to Context.Evals and then calls Model, while scoring calls
// Model alone. No searcher knows which backend computes its costs.
// Every searcher pays for (or scores) each candidate as it generates it,
// on its own goroutine, one query after another, with no batch layer in
// between; so a run's clock is its wall-clock time plus the latency of
// the queries it paid for, as the paper's fixed-time comparison charges a
// baseline's queries. SA and SA+f* run one annealing loop with two energy
// functions.
package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/oracle"
)

// Budget bounds a search run. At least one limit must be set; whichever is
// hit first terminates the run.
type Budget struct {
	// MaxEvals caps cost-function evaluations. For the black-box methods an
	// evaluation is one reference-cost-model query; for Mind Mappings it is
	// one surrogate query (§5.2: "In case of Mind Mappings, the cost
	// function is the trained surrogate").
	MaxEvals int
	// MaxTime caps the run's time: wall-clock time plus the QueryLatency
	// charged to its paid queries.
	MaxTime time.Duration
	// Patience, when positive, declares convergence after this many
	// consecutive evaluations without improving the best-so-far value and
	// stops the run early (the paper runs Mind Mappings "until
	// convergence", §5.4.2). It composes with the hard limits above; at
	// least one hard limit must still be set.
	Patience int
}

func (b Budget) validate() error {
	if b.MaxEvals <= 0 && b.MaxTime <= 0 {
		return errors.New("search: budget needs MaxEvals or MaxTime")
	}
	if b.MaxEvals < 0 || b.MaxTime < 0 || b.Patience < 0 {
		return fmt.Errorf("search: negative budget %+v", b)
	}
	return nil
}

// Sample is one best-so-far trajectory point. A run records a sample at
// every evaluation that lowers the best-so-far value and at every
// evaluation whose 1-based index is a power of two, so its trajectory
// holds the exact best-so-far frontier plus at most ⌊log2 Evals⌋+1
// heartbeats, however long it runs.
type Sample struct {
	// Eval is the 1-based evaluation index at which this point was taken.
	Eval int
	// Elapsed is the run's time (see Budget.MaxTime) since the search
	// started.
	Elapsed time.Duration
	// BestEDP is the lowest true normalized EDP seen so far.
	BestEDP float64
}

// Progress is one live telemetry sample handed to Context.Progress: the
// state of the search at a recorded trajectory point.
type Progress struct {
	// Eval is the number of budgeted evaluations completed so far.
	Eval int
	// Best is the best-so-far normalized objective value.
	Best float64
	// Elapsed is the run's time (see Budget.MaxTime) since the search
	// started.
	Elapsed time.Duration
	// Improved reports whether this sample lowered the best-so-far value.
	Improved bool
}

// Result summarizes one search run.
type Result struct {
	Method     string
	Best       mapspace.Mapping
	BestEDP    float64 // normalized to the algorithmic minimum
	Trajectory []Sample
	Evals      int
	Elapsed    time.Duration
}

// BestAt returns the best-so-far EDP after the first n evaluations, used
// to compare methods at a fixed iteration count: +Inf before the run's
// first sample.
func (r *Result) BestAt(n int) float64 {
	best := math.Inf(1)
	for _, s := range r.Trajectory {
		if s.Eval > n {
			break
		}
		best = s.BestEDP
	}
	return best
}

// BestAtTime returns the best-so-far EDP at the given elapsed time: +Inf
// before the run's first sample.
func (r *Result) BestAtTime(d time.Duration) float64 {
	best := math.Inf(1)
	for _, s := range r.Trajectory {
		if s.Elapsed > d {
			break
		}
		best = s.BestEDP
	}
	return best
}

// Context carries everything a searcher needs for one problem: the map
// space, the pluggable cost model (paid queries), the normalization bound,
// and a seed for reproducibility.
type Context struct {
	Space *mapspace.Space
	// Model is the cost function f: any registered costmodel backend (or
	// a wrapper around one, such as the service's job evaluator). It is
	// the free offline-scoring path as it stands; a paid query is also
	// charged QueryLatency and counted to Evals, in the tracker.
	Model costmodel.Evaluator
	Bound oracle.Bound
	Seed  int64
	// Objective selects the designer cost function (§2.3); the zero value
	// is EDP, the paper's evaluation objective. Every searcher optimizes
	// it; trajectory values are normalized objective values.
	Objective Objective
	// Ctx, when non-nil, lets callers cancel an in-flight search: every
	// searcher treats cancellation like budget exhaustion, stopping at the
	// next evaluation boundary and returning the best-so-far result with a
	// nil error.
	// Long-running callers (the serve job manager, client disconnects)
	// rely on this for prompt teardown; nil means run to the budget.
	Ctx context.Context
	// QueryLatency, when positive, is charged to the run's clock for every
	// paid query, to emulate the reference cost model's per-query cost
	// without sleeping: it counts toward MaxTime budgets, trajectory and
	// result Elapsed times and annealing schedules. Free scoring queries —
	// Mind Mappings trajectory measurements — never pay it. See DESIGN.md §4.
	QueryLatency time.Duration
	// Evals, when non-nil, is charged one per paid query that reaches
	// Model: free scoring queries are not charged.
	// Counters may be shared across runs and backends-per-name (the
	// service's costmodel_evals_total series).
	Evals *costmodel.Counter
	// Cache is read by nothing: every paid query reaches the cost model.
	//
	// Deprecated: the shared eval cache is gone; the field remains only
	// for callers that still set it.
	Cache any
	// Progress, when non-nil, receives live best-so-far telemetry: it fires
	// exactly when a trajectory sample is recorded (every improvement, plus
	// every evaluation whose index is a power of two), from the searcher's
	// own goroutine. The serving stack's SSE endpoints and the CLI's
	// -progress line hang off this hook; implementations must be fast and
	// must not block (the search stalls while the hook runs). The eval hot
	// path pays nothing for it beyond one nil check per recorded sample.
	Progress func(Progress)
	// Checkpoint, when non-nil, receives resumable snapshots of the search
	// every CheckpointEvery evaluations (and once more at cancellation, so
	// a drained job checkpoints exactly where it stopped). Snapshots are
	// emitted from the searcher goroutine at iteration boundaries the
	// searcher knows how to re-enter; the hook owns the Checkpoint it is
	// handed. Searchers that do not support checkpointing simply never call
	// it. See DESIGN.md §9.
	Checkpoint func(*Checkpoint)
	// CheckpointEvery is the evaluation interval between snapshots
	// (DefaultCheckpointEvery when <= 0).
	CheckpointEvery int
	// Resume, when non-nil, restores the search from a prior Checkpoint
	// instead of starting fresh: budget position, best-so-far state,
	// trajectory prefix, RNG stream position, and searcher state all carry
	// over, so the resumed run's trajectory suffix is bit-compatible with
	// the uninterrupted run under the same Seed and request. The Context's
	// Seed and problem must match the checkpointed run's.
	Resume *Checkpoint
	// SeedMapping, when non-nil, warm-starts the search from a known-good
	// mapping instead of a purely random initial point: Mind Mappings
	// repairs it into the space and starts its first descent chain there
	// (the atlas nearest-neighbor path, where a solved neighbor's mapping
	// is re-projected into this problem's space); other searchers ignore
	// it. The RNG stream is drawn identically with or without a seed
	// mapping, so seeding composes with Checkpoint/Resume: a seeded run
	// that is checkpointed and resumed reproduces the uninterrupted seeded
	// trajectory bit-identically. Resume takes precedence — a restored
	// run's chains come from its checkpoint, never from SeedMapping.
	SeedMapping *mapspace.Mapping
}

// NewContext builds the per-problem triple every search needs — the map
// space, the named costmodel backend (empty = costmodel.DefaultBackend)
// and the normalization bound — the paper's Appendix-B per-problem object.
// The caller fills in the seed and the run knobs.
func NewContext(costModel string, a arch.Spec, p loopnest.Problem) (*Context, error) {
	space, err := mapspace.New(a, p)
	if err != nil {
		return nil, err
	}
	model, err := costmodel.New(costModel, a, p)
	if err != nil {
		return nil, err
	}
	bound, err := oracle.Compute(a, p)
	if err != nil {
		return nil, err
	}
	return &Context{Space: space, Model: model, Bound: bound}, nil
}

// canceled reports whether the caller has canceled the run. It polls
// Done, which takes no lock once the channel exists, where Err locks the
// context on every call.
func (c *Context) canceled() bool {
	if c.Ctx == nil {
		return false
	}
	select {
	case <-c.Ctx.Done():
		return true
	default:
		return false
	}
}

// evalCtx returns the cancellation context threaded into evaluator calls.
func (c *Context) evalCtx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

func (c *Context) validate() error {
	if c.Space == nil || c.Model == nil {
		return errors.New("search: context needs a map space and a cost model")
	}
	if c.Bound.MinEDP <= 0 {
		return errors.New("search: context bound is not positive")
	}
	if p := c.Model.Problem(); c.Space.Prob.Name != p.Name {
		return fmt.Errorf("search: space problem %q != model problem %q",
			c.Space.Prob.Name, p.Name)
	}
	return nil
}

// Searcher is a mapping-space search method.
type Searcher interface {
	Name() string
	Search(ctx *Context, budget Budget) (Result, error)
}

// SurrogateQuerier abstracts the surrogate's batched query entry points.
// *surrogate.Surrogate satisfies it directly; the only other queriers are
// wrappers around it, such as a benchmark's layer timer or a test double.
// Implementations must preserve the surrogate's result contract: values
// and gradients for vecs[i] bit-identical to the direct scalar calls (on
// the default build), independent of what other rows execute alongside
// them.
type SurrogateQuerier interface {
	PredictBatch(vecs [][]float64, eExp, dExp float64, dst []float64) ([]float64, error)
	GradientBatch(vecs [][]float64, eExp, dExp float64, vals []float64, grads [][]float64) ([]float64, [][]float64, error)
}

// tracker enforces the budget and records the best-so-far trajectory. It is
// shared by all searchers so that budget accounting is identical across
// methods. A paid query (a reference-model query) is charged QueryLatency
// on the run's clock and counted to Evals before it reaches Model; a free
// one (offline trajectory scoring) goes to Model directly.
type tracker struct {
	ctx       *Context
	ectx      context.Context
	budget    Budget
	start     time.Time
	evals     int
	best      float64
	bestM     mapspace.Mapping
	traj      []Sample
	sinceBest int
	// elapsed0 is the run time carried over from a resumed checkpoint, so
	// MaxTime budgets and trajectory timestamps span the whole logical run;
	// charged is the QueryLatency booked by this process's paid queries;
	// lastCheckpoint is the eval count at the last emitted snapshot.
	elapsed0       time.Duration
	charged        time.Duration
	lastCheckpoint int

	// own is the evaluation workspace: steady-state evaluation
	// allocates nothing (the Cost doubles as the backend's workspace).
	own costmodel.Cost
}

// newTracker validates a search's context and budget, in that order, and
// starts its tracker: every searcher's preamble.
func newTracker(ctx *Context, budget Budget) (*tracker, error) {
	if err := ctx.validate(); err != nil {
		return nil, err
	}
	if err := budget.validate(); err != nil {
		return nil, err
	}
	return &tracker{
		ctx:    ctx,
		ectx:   ctx.evalCtx(),
		budget: budget,
		start:  time.Now(),
		best:   math.Inf(1),
	}, nil
}

// exhausted reports whether the budget has run out, the run has converged
// (Patience evaluations without improvement), or the caller canceled the
// run. Every searcher checks it around each paid evaluation, so
// cancellation stops an in-flight search within one evaluation.
func (t *tracker) exhausted() bool {
	return t.exhaustedAt(t.clock())
}

// exhaustedAt is exhausted at the elapsed time clock returned.
func (t *tracker) exhaustedAt(elapsed time.Duration) bool {
	if t.ctx.canceled() {
		return true
	}
	if t.budget.MaxEvals > 0 && t.evals >= t.budget.MaxEvals {
		return true
	}
	if t.budget.MaxTime > 0 && elapsed >= t.budget.MaxTime {
		return true
	}
	if t.budget.Patience > 0 && t.sinceBest >= t.budget.Patience {
		return true
	}
	return false
}

// clock returns the elapsed time the time budget is measured by, reading
// the clock only when the budget has a time limit (0 otherwise).
func (t *tracker) clock() time.Duration {
	if t.budget.MaxTime > 0 {
		return t.elapsed()
	}
	return 0
}

// progress returns the fraction of the budget consumed at the elapsed
// time clock returned, for annealing schedules.
func (t *tracker) progress(elapsed time.Duration) float64 {
	p := 0.0
	if t.budget.MaxEvals > 0 {
		p = float64(t.evals) / float64(t.budget.MaxEvals)
	}
	if t.budget.MaxTime > 0 {
		if tp := float64(elapsed) / float64(t.budget.MaxTime); tp > p {
			p = tp
		}
	}
	return math.Min(p, 1)
}

// record notes a candidate with a known true normalized EDP, as
// evaluation t.evals. It records a sample, and fires Context.Progress, only
// when the candidate improves the best-so-far value or the eval index is a
// power of two (see Sample).
func (t *tracker) record(m *mapspace.Mapping, edp float64) {
	improved := edp < t.best
	if improved {
		t.best = edp
		t.bestM = m.Clone()
		t.sinceBest = 0
	} else {
		t.sinceBest++
		if !powerOfTwo(t.evals) {
			return
		}
	}
	elapsed := t.elapsed()
	t.traj = append(t.traj, Sample{Eval: t.evals, Elapsed: elapsed, BestEDP: t.best})
	if t.ctx.Progress != nil {
		t.ctx.Progress(Progress{Eval: t.evals, Best: t.best, Elapsed: elapsed, Improved: improved})
	}
}

// powerOfTwo reports whether the 1-based eval index n is a heartbeat: a
// power of two.
func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// evalValue runs one cost-model query into the given workspace, returning
// the normalized objective value. A paid query is first charged
// QueryLatency on the run's clock and counted to Context.Evals.
func (t *tracker) evalValue(m *mapspace.Mapping, paid bool, ws *costmodel.Cost) (float64, error) {
	if paid {
		t.charged += t.ctx.QueryLatency
		if t.ctx.Evals != nil {
			t.ctx.Evals.Inc()
		}
	}
	if err := t.ctx.Model.EvaluateInto(t.ectx, m, ws); err != nil {
		return 0, err
	}
	return t.ctx.Objective.normalized(ws, t.ctx.Bound), nil
}

// payEval runs a paid reference-cost-model query on m, records it, and
// returns the true normalized EDP. A query the cost model fails because the
// run was canceled records nothing and returns +Inf with a nil error;
// the caller's next exhausted() check stops the run, preserving the
// cancellation contract (best-so-far result, nil error).
func (t *tracker) payEval(m *mapspace.Mapping) (float64, error) {
	val, err := t.evalValue(m, true, &t.own)
	if err != nil {
		if t.ctx.canceled() {
			return math.Inf(1), nil
		}
		return 0, err
	}
	t.evals++
	t.record(m, val)
	return val, nil
}

// scoreSurrogateStep accounts one Mind Mappings surrogate iteration: it
// charges one evaluation against the budget and records the candidate's
// true EDP (obtained through the free scoring path — in the paper's
// methodology trajectory quality is measured offline, not paid for).
func (t *tracker) scoreSurrogateStep(m *mapspace.Mapping) (float64, error) {
	val, err := t.evalValue(m, false, &t.own)
	if err != nil {
		if t.ctx.canceled() {
			return math.Inf(1), nil
		}
		return 0, err
	}
	t.evals++
	t.record(m, val)
	return val, nil
}

// elapsed is the run's time since its logical start: wall-clock time in
// this process, plus the QueryLatency charged to its paid queries, plus
// whatever a resumed checkpoint already consumed.
func (t *tracker) elapsed() time.Duration {
	return t.elapsed0 + t.charged + time.Since(t.start)
}

// result finalizes the run.
func (t *tracker) result(name string) Result {
	return Result{
		Method:     name,
		Best:       t.bestM,
		BestEDP:    t.best,
		Trajectory: t.traj,
		Evals:      t.evals,
		Elapsed:    t.elapsed(),
	}
}
