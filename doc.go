// Package mindmappings is a from-scratch Go reproduction of "Mind Mappings:
// Enabling Efficient Algorithm-Accelerator Mapping Space Search" (ASPLOS
// 2021).
//
// Mind Mappings searches the space of mappings from a tensor algorithm (CNN
// layers, MTTKRP) to a flexible hardware accelerator. The mapping space is
// high dimensional, non-convex and non-smooth, so prior work relies on
// black-box optimizers. Mind Mappings instead trains a differentiable MLP
// surrogate of the accelerator cost function (Phase 1) and then runs
// projected gradient descent on the surrogate to find low energy-delay
// product mappings (Phase 2).
//
// The implementation lives under internal/ and is exposed through
// internal/core (the Mapper API), the runnable examples under examples/, and
// the command-line tools under cmd/. The root-level benchmarks in
// bench_test.go regenerate every table and figure of the paper's evaluation;
// see DESIGN.md for the per-experiment index and the layering notes.
//
// Workloads are a declarative layer: internal/workload compiles einsum
// index-expression specs ("O[m,n] += A[m,k] * B[k,n]"; halo subscripts
// like I[n,c,x+r,y+s] for convolutions) into validated loopnest.Algorithm
// values and seeds loopnest's by-name algorithm registry with the paper's
// three workloads plus gemm, batched-matmul, depthwise-conv, and
// attention-score. Any registered workload — or an inline spec via the
// CLI's -einsum flag and the service's "einsum" request field — flows
// through the whole pipeline with zero per-algorithm code, and dataset or
// surrogate files are stamped with the workload's fingerprint so a model
// trained for one workload refuses to serve another. `mindmappings algos`
// lists the registry; see DESIGN.md §6 for the grammar and the
// fingerprint contract.
//
// The cost function f is a pluggable layer: internal/costmodel defines the
// Evaluator interface, a by-name backend registry, and the Counter that
// paid-eval accounting shares; the search tracker counts its own paid
// queries and charges their latency to the run's clock, and the service
// times each job's evaluations. One analytical model (internal/timeloop)
// registers twice: as "timeloop", the reference Timeloop-style model and
// the default, and as "roofline", the same model with best-order reuse
// (which, on bare-indexed outputs, also removes partial-sum
// read-modify-write) and nominal SRAM energy. Backends are selected end-to-end — `mindmappings search
// -model=roofline`, the service's "cost_model" request field (with
// per-backend eval counters in /metrics), and `experiments -costmodel`
// — and no searcher, trainer, or service code names a concrete backend.
//
// Beyond the one-shot CLI, internal/service turns the library into a
// long-running concurrent mapping-search server (`mindmappings serve`): an
// HTTP JSON API backed by a worker pool, a registry that loads trained
// surrogates once and shares them across jobs (reloading raw files that
// are republished in place), and an LRU cache that memoizes
// reference-cost-model evaluations across jobs working on the same
// problem. See README.md for a quickstart and an example curl session.
//
// Phase 1 is online too: internal/trainer runs dataset generation →
// supervised training → publication as cancellable, resumable jobs on a
// worker pool separate from the search pool (POST /v1/train, `mindmappings
// train`), with per-epoch checkpoints and live phase/epoch/loss progress.
// Finished surrogates land in internal/modelstore — a content-addressed,
// versioned artifact store on an append-only log, JSON manifests
// (workload/arch/cost-model fingerprints, training config, loss
// trajectories, warm-start lineage), an index keyed by workload
// fingerprint, and GC of superseded versions. Searches can name a model as
// "auto" to resolve the best stored artifact for their workload — or set
// train_on_miss to train one on the spot — and new training runs can
// warm-start from a stored parent of the same workload, reaching the cold
// run's final loss in a fraction of the epochs (the BENCH_search.json
// warm-vs-cold row). `mindmappings serve` drains searches, training jobs,
// and the HTTP listener gracefully on SIGINT/SIGTERM. See DESIGN.md §7 for
// the store layout, the manifest schema, and the auto-resolution and
// warm-start rules.
//
// The evaluation hot path is batched and allocation-free: every surrogate
// query is a batch (surrogate.PredictBatch / GradientBatch over
// nn.ForwardBatch / BackwardInputBatch and mat.MulNT / mat.MulNN), a
// single query is a 1-row batch, and each row gets the same bits in a
// batch of any size. Phase-1 training runs on the same batch kernels:
// nn.Train pushes each minibatch through ForwardBatch and
// MLP.BackwardBatch, whose weight gradients (mat.MulTNAcc) add the rows'
// terms in row order, so training is bit-identical to the per-sample loop
// it replaced. The surrogate's arithmetic has one configuration: pure-Go
// kernels with one build, ReLU hidden layers, SGD-with-momentum training,
// and a single Mind Mappings descent chain. Every cost-model backend evaluates into a reusable
// costmodel.Cost workspace with zero steady-state heap allocations,
// and searchers evaluate candidate populations and neighborhoods as
// batches, one candidate after another on the search's own goroutine.
// BENCH_search.json records the measured speedups; the README's
// Performance section documents the knobs and the benchmark commands.
package mindmappings
