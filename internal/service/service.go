// Package service turns the Mind Mappings library into a long-running,
// concurrent mapping-search server — the production shape of the paper's
// Appendix-B "optimization service for compilers and frameworks": many
// clients submit Phase-2 search queries against shared, trained Phase-1
// surrogates, and throughput comes from three forms of sharing that a
// one-shot CLI run cannot exploit:
//
//   - a ModelRegistry loads each trained surrogate from disk once and
//     shares it (surrogate prediction is concurrency-safe) across every
//     job, with LRU eviction bounding resident models;
//   - a mapping atlas answers repeat requests with an already-solved
//     mapping and warm-starts near misses from the nearest solved shape;
//   - a JobManager runs jobs from a bounded queue on a worker pool sized
//     to runtime.NumCPU(), with per-job context cancellation threaded all
//     the way into the search loops.
//
// Cost-model evaluations are never shared: every job pays its own. Every
// registered backend is an analytical model cheaper than a memoizing
// lookup, so a shared eval cache cost more than it saved (DESIGN.md §5).
// Each job evaluates through one jobEvaluator around its backend, which
// times every 64th evaluation into costmodel_eval_seconds and, under
// SetFaults, draws injected faults inside retry; the search tracker
// charges the job's paid queries to costmodel_evals_total, so MM's
// offline scoring is timed but never charged.
//
// With WithTraining the server also closes the Phase-1 loop online: a
// trainer.Pipeline (its own worker pool, so training never starves
// searches) runs cancellable, resumable dataset-generation + training
// jobs over POST /v1/train and publishes the results into a
// modelstore.Store — content-addressed, versioned artifacts indexed by
// workload fingerprint. Searches may then name a model as "auto" (resolve
// the best stored artifact for the workload, optionally training on a
// miss via train_on_miss), an artifact ID, or a raw file; raw files
// republished in place are detected and reloaded.
//
// The HTTP JSON API (see Server) is served by the `mindmappings serve`
// subcommand.
package service
