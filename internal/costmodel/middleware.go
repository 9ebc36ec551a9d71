package costmodel

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
)

// This file holds the composable middleware any backend inherits: eval
// accounting (WithCounter), reference-model query-latency emulation
// (WithLatency), memoization (WithCache), and bounded-parallel batch
// fan-out (WithParallel). Each wrapper is itself an Evaluator, so stacks
// compose freely; the conventional order, outermost first, is
//
//	WithParallel(WithCache(WithLatency(WithCounter(backend))))
//
// so cache hits skip the latency and the counter (a memoized query is not
// a paid one), and parallel workers drive the whole per-element stack.

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
// Elements skipped by cancellation (or served by a cache wrapped outside)
// are not charged.
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

// Cache memoizes evaluations across search runs sharing a problem.
// Implementations must be safe for concurrent use; cached Cost values are
// shared and must be treated as immutable (the middleware stores detached
// clones and serves hits by copy).
type Cache interface {
	Get(key string) (Cost, bool)
	Put(key string, c Cost)
}

// BytesCache is an optional Cache extension for zero-allocation hits: a
// lookup keyed by the raw binary key bytes, so the middleware only
// materializes the key string when it has to store a miss. A Go map
// indexed with string(bytes) compiles to an allocation-free lookup, so
// implementations get this for free; GetBytes must not retain key.
type BytesCache interface {
	Cache
	GetBytes(key []byte) (Cost, bool)
}

// maxInternedBytes bounds the process-wide fingerprint intern table at
// 4 MiB of fingerprints (~3,500 cnn-layer evaluators). A server fed
// ever-new problems starts a fresh table when it would overflow; the IDs
// already handed out stay valid, since IDs are never reused.
const maxInternedBytes = 4 << 20

// evaluatorIDs interns evaluator fingerprints to small IDs, so cache keys
// carry a one- or two-byte uvarint instead of a ~1 KB fingerprint. next
// only ever grows: after a reset an evaluator seen before gets a fresh ID
// (its old entries age out of the LRU), and no ID ever names two
// fingerprints, so keys stay collision-free by construction.
var evaluatorIDs struct {
	sync.Mutex
	ids   map[string]uint64 // by fingerprint
	bytes int               // fingerprint bytes held by ids
	next  uint64
}

// evaluatorID returns the interned ID of fingerprint fp, assigning the
// next one on first use.
func evaluatorID(fp []byte) uint64 {
	evaluatorIDs.Lock()
	defer evaluatorIDs.Unlock()
	if id, ok := evaluatorIDs.ids[string(fp)]; ok {
		return id
	}
	if evaluatorIDs.ids == nil || evaluatorIDs.bytes+len(fp) > maxInternedBytes {
		evaluatorIDs.ids = map[string]uint64{}
		evaluatorIDs.bytes = 0
	}
	evaluatorIDs.next++
	evaluatorIDs.ids[string(fp)] = evaluatorIDs.next
	evaluatorIDs.bytes += len(fp)
	return evaluatorIDs.next
}

// cached memoizes inner's evaluations under evaluator-ID-prefixed keys.
type cached struct {
	inner  Evaluator
	cache  Cache
	bytes  BytesCache // non-nil when cache supports binary-key lookups
	prefix []byte     // uvarint evaluator ID, interned once
	keys   sync.Pool
}

// WithCache wraps inner so evaluations are memoized in cache, keyed by an
// interned evaluator ID plus the mapping's attributes (AppendMappingKey).
// Equal evaluators — same backend, accelerator, and problem — share one ID,
// so separate jobs reuse each other's entries; evaluators differing in any
// of them never share entries. Hits skip inner entirely (and therefore any
// latency or counting wrapped inside); misses store a detached clone. When
// cache also implements BytesCache the hit path is allocation-free (the
// pooled binary key buffer is looked up directly) and a miss allocates the
// key string and the clone; otherwise every lookup also builds the key
// string. A nil cache returns inner unchanged.
func WithCache(inner Evaluator, cache Cache) Evaluator {
	if cache == nil {
		return inner
	}
	id := evaluatorID(inner.AppendFingerprint(nil))
	c := &cached{inner: inner, cache: cache, prefix: binary.AppendUvarint(nil, id)}
	if bc, ok := cache.(BytesCache); ok {
		c.bytes = bc
	}
	return c
}

func (e *cached) Name() string                        { return e.inner.Name() }
func (e *cached) Problem() loopnest.Problem           { return e.inner.Problem() }
func (e *cached) AppendFingerprint(dst []byte) []byte { return e.inner.AppendFingerprint(dst) }

func (e *cached) EvaluateInto(ctx context.Context, m *mapspace.Mapping, c *Cost) error {
	buf, _ := e.keys.Get().(*[]byte)
	if buf == nil {
		// Sized for a typical key, so a fresh buffer is not regrown
		// through every power of two while the key is appended.
		b := make([]byte, 0, 256)
		buf = &b
	}
	*buf = AppendMappingKey(append((*buf)[:0], e.prefix...), m)
	if e.bytes != nil {
		if hit, ok := e.bytes.GetBytes(*buf); ok {
			e.keys.Put(buf)
			hit.CopyTo(c)
			return nil
		}
		key := string(*buf)
		e.keys.Put(buf)
		if err := e.inner.EvaluateInto(ctx, m, c); err != nil {
			return err
		}
		e.cache.Put(key, c.Clone())
		return nil
	}
	key := string(*buf)
	e.keys.Put(buf)
	if hit, ok := e.cache.Get(key); ok {
		hit.CopyTo(c)
		return nil
	}
	if err := e.inner.EvaluateInto(ctx, m, c); err != nil {
		return err
	}
	e.cache.Put(key, c.Clone())
	return nil
}

func (e *cached) EvaluateBatchInto(ctx context.Context, ms []mapspace.Mapping, costs []Cost, errs []error) {
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

// parallel fans batch evaluations across a bounded worker pool. Scalar
// evaluations pass straight through.
type parallel struct {
	inner   Evaluator
	workers int
}

// WithParallel wraps inner so EvaluateBatchInto fans elements across up to
// workers goroutines, each driving the full inner stack with its own
// caller-provided Cost workspace. Results land at their element's index,
// so batch contents are independent of scheduling; only wall-clock
// changes. workers <= 1 returns inner unchanged.
func WithParallel(inner Evaluator, workers int) Evaluator {
	if workers <= 1 {
		return inner
	}
	return &parallel{inner: inner, workers: workers}
}

func (e *parallel) Name() string                        { return e.inner.Name() }
func (e *parallel) Problem() loopnest.Problem           { return e.inner.Problem() }
func (e *parallel) AppendFingerprint(dst []byte) []byte { return e.inner.AppendFingerprint(dst) }

func (e *parallel) EvaluateInto(ctx context.Context, m *mapspace.Mapping, c *Cost) error {
	return e.inner.EvaluateInto(ctx, m, c)
}

func (e *parallel) EvaluateBatchInto(ctx context.Context, ms []mapspace.Mapping, costs []Cost, errs []error) {
	n := len(ms)
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		e.inner.EvaluateBatchInto(ctx, ms, costs, errs)
		return
	}
	ctx = orBackground(ctx)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// Honor cancellation between evaluations: remaining
				// elements are marked, not evaluated, so a canceled batch
				// stops within one in-flight evaluation per worker.
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = e.inner.EvaluateInto(ctx, &ms[i], &costs[i])
			}
		}()
	}
	wg.Wait()
}
