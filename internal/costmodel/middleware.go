package costmodel

import (
	"context"
	"sync/atomic"
	"time"

	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
)

// This file holds the composable middleware any backend inherits: eval
// accounting (WithCounter), reference-model query-latency emulation
// (WithLatency) and sampled latency observation (WithTiming). Each
// wrapper is itself an Evaluator, so stacks compose freely; the search
// tracker's paid stack, outermost first, is
//
//	WithLatency(WithCounter(backend))
//
// so every evaluation that reaches the backend is charged and stalled.

// Counter is shared, concurrency-safe evaluation accounting. One Counter
// may be attached to many evaluator stacks (the serve service keeps one
// per backend and exposes it as costmodel_evals_total{backend} on
// /metrics).
type Counter struct {
	n atomic.Int64
}

// Count returns the number of evaluations charged so far.
func (c *Counter) Count() int64 { return c.n.Load() }

// Reset clears the counter.
func (c *Counter) Reset() { c.n.Store(0) }

// counted charges every evaluation that reaches it to a Counter.
type counted struct {
	inner Evaluator
	ctr   *Counter
}

// WithCounter wraps inner so every evaluation reaching it increments ctr.
// Elements skipped by cancellation are not charged.
func WithCounter(inner Evaluator, ctr *Counter) Evaluator {
	if ctr == nil {
		return inner
	}
	return &counted{inner: inner, ctr: ctr}
}

func (e *counted) Name() string                        { return e.inner.Name() }
func (e *counted) Problem() loopnest.Problem           { return e.inner.Problem() }
func (e *counted) AppendFingerprint(dst []byte) []byte { return e.inner.AppendFingerprint(dst) }
func (e *counted) EvaluateInto(ctx context.Context, m *mapspace.Mapping, c *Cost) error {
	e.ctr.n.Add(1)
	return e.inner.EvaluateInto(ctx, m, c)
}

func (e *counted) EvaluateBatchInto(ctx context.Context, ms []mapspace.Mapping, costs []Cost, errs []error) {
	SequentialBatch(ctx, e, ms, costs, errs)
}

// latency stalls every evaluation by a fixed duration, emulating the query
// cost of the paper's reference cost model (Timeloop queries take
// milliseconds; the in-process analytical backends take microseconds).
// Iso-time experiments install it so the relative per-step costs of
// surrogate-driven and cost-model-driven search match the paper's setting.
// The stall honors ctx: a canceled context interrupts the wait immediately
// and returns ctx.Err(), so jobs with emulated latency tear down promptly.
type latency struct {
	inner Evaluator
	d     time.Duration
}

// WithLatency wraps inner so every evaluation first waits d (or returns
// early with ctx.Err() when ctx is canceled mid-wait). d <= 0 returns
// inner unchanged.
func WithLatency(inner Evaluator, d time.Duration) Evaluator {
	if d <= 0 {
		return inner
	}
	return &latency{inner: inner, d: d}
}

func (e *latency) Name() string                        { return e.inner.Name() }
func (e *latency) Problem() loopnest.Problem           { return e.inner.Problem() }
func (e *latency) AppendFingerprint(dst []byte) []byte { return e.inner.AppendFingerprint(dst) }

func (e *latency) EvaluateInto(ctx context.Context, m *mapspace.Mapping, c *Cost) error {
	ctx = orBackground(ctx)
	t := time.NewTimer(e.d)
	select {
	case <-t.C:
	case <-ctx.Done():
		t.Stop()
		return ctx.Err()
	}
	return e.inner.EvaluateInto(ctx, m, c)
}

func (e *latency) EvaluateBatchInto(ctx context.Context, ms []mapspace.Mapping, costs []Cost, errs []error) {
	SequentialBatch(ctx, e, ms, costs, errs)
}

// timed samples evaluation latency into an observer callback. Timing every
// evaluation would put two clock reads (~50ns) on a ~270ns analytical-model
// hot path, so the middleware observes every Nth evaluation instead: the
// skip path costs one atomic add, which keeps search throughput within
// noise while the sampled latencies still populate a faithful histogram
// (evaluation latency does not correlate with the sample phase).
type timed struct {
	inner   Evaluator
	every   int64
	observe func(time.Duration)
	n       atomic.Int64
}

// WithTiming wraps inner so every every-th evaluation's latency is passed
// to observe (1 times every evaluation). The observer must be fast,
// non-blocking, and safe for concurrent use — an obs histogram's
// ObserveDuration qualifies. A nil observe or every < 1 returns inner
// unchanged.
func WithTiming(inner Evaluator, every int, observe func(time.Duration)) Evaluator {
	if observe == nil || every < 1 {
		return inner
	}
	return &timed{inner: inner, every: int64(every), observe: observe}
}

func (e *timed) Name() string                        { return e.inner.Name() }
func (e *timed) Problem() loopnest.Problem           { return e.inner.Problem() }
func (e *timed) AppendFingerprint(dst []byte) []byte { return e.inner.AppendFingerprint(dst) }

func (e *timed) EvaluateInto(ctx context.Context, m *mapspace.Mapping, c *Cost) error {
	if e.n.Add(1)%e.every != 0 {
		return e.inner.EvaluateInto(ctx, m, c)
	}
	start := time.Now()
	err := e.inner.EvaluateInto(ctx, m, c)
	if err == nil {
		e.observe(time.Since(start))
	}
	return err
}

func (e *timed) EvaluateBatchInto(ctx context.Context, ms []mapspace.Mapping, costs []Cost, errs []error) {
	SequentialBatch(ctx, e, ms, costs, errs)
}
