// Package costmodel is the pluggable cost-model layer: it defines the
// Evaluator interface every cost function f implements, the Cost record
// all backends produce, a by-name backend registry, and the Counter that
// evaluation accounting shares across searches. Nothing here wraps a
// backend: the search tracker counts its own paid queries and charges
// their latency to the run's clock, and the serve service times and
// fault-injects each job's evaluations in one evaluator of its own.
//
// The paper treats f as an exchangeable component (§2.3, §5.1.2 — Timeloop
// is just the reference instantiation), so nothing above this package may
// care which backend computes a cost: searchers, the surrogate trainer,
// the Mapper API, and the serve service all work against Evaluator. This
// package holds no backend. Package timeloop registers the two built-in
// ones from one model — the reference Timeloop-style reuse analysis
// ("timeloop") and its optimistic best-case relaxation ("roofline") — and
// new ones (a real-Timeloop subprocess, a learned model) plug in by
// calling Register without touching any searcher. See DESIGN.md §5 for the
// layering.
package costmodel

import (
	"context"
	"encoding/binary"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/obs"
)

// Evaluator is a cost function f bound to one (accelerator, problem) pair.
// Implementations must be safe for concurrent use by callers that each
// hold their own Cost workspace: core.ProblemContext hands every search a
// copy of one search.Context, so searches run at once share its evaluator.
type Evaluator interface {
	// Name identifies the backend ("timeloop", "roofline"). Wrappers
	// return the wrapped backend's name.
	Name() string
	// Problem returns the problem the evaluator is bound to, so callers
	// can validate that a mapping space and a cost model agree.
	Problem() loopnest.Problem
	// AppendFingerprint appends a canonical binary identity of the
	// evaluator — backend name, accelerator, and problem — to dst and
	// returns the extended slice. Distinct (backend, arch, problem)
	// triples yield distinct fingerprints; the trainer hashes it to stamp
	// which cost model labeled a surrogate's training data.
	AppendFingerprint(dst []byte) []byte
	// EvaluateInto computes the cost of one mapping into the caller-owned
	// workspace c, overwriting its previous contents. Reusing c across
	// calls makes steady-state evaluation allocation-free. ctx carries
	// cancellation for wrappers that wait (the service's injected latency
	// spikes and retry backoff); bare backends are fast enough to ignore it.
	EvaluateInto(ctx context.Context, m *mapspace.Mapping, c *Cost) error
	// EvaluateBatchInto evaluates ms[i] into costs[i], reporting each
	// element's outcome in errs[i]. All three slices have equal length.
	// Elements remaining after ctx is canceled are marked with ctx.Err()
	// and not evaluated. Every implementation evaluates sequentially
	// through SequentialBatch; the searchers evaluate one candidate at a
	// time through EvaluateInto and never call it.
	EvaluateBatchInto(ctx context.Context, ms []mapspace.Mapping, costs []Cost, errs []error)
}

// Counter is shared, concurrency-safe evaluation accounting: an obs
// counter, so one may be charged by many searches at once and exposed as
// is. The serve service charges the costmodel_evals_total{backend} series
// of its registry directly.
type Counter = obs.Counter

// Evaluate is the convenience scalar form: it evaluates m into a fresh
// Cost. Hot paths should hold a reusable Cost and call EvaluateInto.
func Evaluate(ctx context.Context, ev Evaluator, m *mapspace.Mapping) (Cost, error) {
	var c Cost
	err := ev.EvaluateInto(orBackground(ctx), m, &c)
	return c, err
}

// SequentialBatch implements EvaluateBatchInto as the per-element scalar
// loop, for evaluators without a native batch path. Cancellation is
// honored between elements: once ctx expires the remaining elements are
// marked with ctx.Err() instead of being evaluated.
func SequentialBatch(ctx context.Context, ev Evaluator, ms []mapspace.Mapping, costs []Cost, errs []error) {
	ctx = orBackground(ctx)
	for i := range ms {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		errs[i] = ev.EvaluateInto(ctx, &ms[i], &costs[i])
	}
}

// orBackground tolerates callers that have no context to thread through.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// AppendBackendFingerprint appends the canonical evaluator identity shared
// by all backends: the length-prefixed backend name, the accelerator
// fingerprint, and the problem identity — the full workload fingerprint
// (loopnest.Algorithm.AppendFingerprint, which covers structure, not just
// the name: two workloads sharing a name but differing in tensors or
// footprints never alias, which matters for runtime-defined einsum
// workloads whose derived names are hashes) plus the shape. Backends call
// it from AppendFingerprint so fingerprints are collision-free across
// backends, accelerators, and workloads by construction.
func AppendBackendFingerprint(dst []byte, name string, a *arch.Spec, p *loopnest.Problem) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(name)))
	dst = append(dst, name...)
	dst = a.AppendFingerprint(dst)
	dst = p.Algo.AppendFingerprint(dst)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(p.Shape)))
	for _, s := range p.Shape {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(s))
	}
	return dst
}
