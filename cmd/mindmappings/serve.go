package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mindmappings/internal/atlas"
	"mindmappings/internal/modelstore"
	"mindmappings/internal/resilience"
	"mindmappings/internal/service"
	"mindmappings/internal/trainer"
)

// cmdServe runs the long-lived mapping-search service: an HTTP JSON API
// backed by a search worker pool, a separate training pipeline publishing
// into a versioned artifact store, and a shared surrogate registry. See
// internal/service for the API surface.
//
// On SIGINT/SIGTERM the server drains gracefully: /readyz flips to 503,
// the listener stops accepting, in-flight search jobs are cancelled — each
// running searcher emits a final checkpoint into the job journal — and the
// process exits once both pools have stopped or the grace period expires.
// The next `serve` on the same -journal directory recovers the drained
// jobs and resumes them from those checkpoints, so a rolling restart
// suspends work instead of discarding it.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	modelDir := fs.String("models", ".", "directory of trained surrogate files served by /v1/models")
	storeDir := fs.String("store", "", "versioned artifact store directory (default <models>/store); training over HTTP publishes here")
	workers := fs.Int("workers", 0, "search worker pool size (default: runtime.NumCPU())")
	queueCap := fs.Int("queue", 64, "pending-job queue capacity")
	trainWorkers := fs.Int("trainworkers", 2, "training pipeline worker count (separate pool from search workers)")
	trainQueue := fs.Int("trainqueue", 16, "pending-training-job queue capacity")
	regCap := fs.Int("maxmodels", service.DefaultRegistryCapacity, "max surrogates resident in memory (LRU beyond this)")
	shutdownGrace := fs.Duration("grace", 10*time.Second, "graceful-shutdown timeout")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	quiet := fs.Bool("quiet", false, "disable per-request structured log lines")
	journalDir := fs.String("journal", "", `crash-safe job journal directory (default <models>/jobs; "none" disables); queued and running search jobs are recovered and resumed from it on the next start`)
	atlasDir := fs.String("atlas", "", `precomputed mapping atlas directory (default <models>/atlas; "none" disables); repeat requests are answered from it without running a search, near-miss mm searches warm-start from the nearest solved shape, and completed jobs write their solutions back`)
	atlasRO := fs.Bool("atlas-readonly", false, "serve atlas hits and neighbor warm starts but never write solved mappings back")
	checkpointEvals := fs.Int("checkpoint-evals", 0, "evaluations between searcher checkpoints (0: library default)")
	maxJobTime := fs.Duration("maxjobtime", 0, "server-side anytime deadline applied to every search job; at expiry jobs complete with their best-so-far mapping marked degraded (0: no ceiling)")
	quotaRate := fs.Float64("quota-rate", 0, "per-tenant sustained admissions/second (0: no rate quota)")
	quotaBurst := fs.Float64("quota-burst", 0, "per-tenant token-bucket depth (default max(quota-rate, 1); a value below 1 is raised to 1, since each admission spends a whole token)")
	quotaConc := fs.Int("quota-concurrent", 0, "per-tenant cap on jobs in flight (0: no cap)")
	sloOn := fs.Bool("slo", false, "track service-level objectives as multi-window burn rates: /v1/status health score, slo_* series on /metrics, /readyz unready at health 0")
	sloAvail := fs.Float64("slo-availability", 0.999, "target fraction of terminal jobs finishing successfully, in [0, 1) (needs -slo; 0 disables the objective)")
	sloQueueWait := fs.Duration("slo-queue-wait", 30*time.Second, "queue-wait threshold: 95% of jobs must start within it (needs -slo; 0 disables the objective)")
	sloFirstEval := fs.Duration("slo-first-eval", 5*time.Second, "time-to-first-eval threshold: 95% of jobs must produce an evaluation within it (needs -slo; 0 disables the objective)")
	minHealth := fs.Float64("min-health", 0, "shed load while the SLO health score is below this fraction, in [0, 1] (needs -slo; 0: never shed on health)")
	faultsSpec := fs.String("faults", os.Getenv("MINDMAPPINGS_FAULTS"),
		`deterministic fault injection for chaos testing, e.g. "seed=7,eval=0.01,eval.lat=0.05:25ms,journal.write=0.05,store.publish=0.1" (default $MINDMAPPINGS_FAULTS)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A health score never exceeds 1 and an availability target of 1 or
	// more leaves no error budget, so out-of-range values (NaN included)
	// are flag errors rather than a silently dropped objective or a server
	// that sheds forever.
	if !(*sloAvail >= 0 && *sloAvail < 1) {
		return fmt.Errorf("serve: -slo-availability %v is outside [0, 1) (0 disables the objective)", *sloAvail)
	}
	if !(*minHealth >= 0 && *minHealth <= 1) {
		return fmt.Errorf("serve: -min-health %v is outside [0, 1] (0: never shed on health)", *minHealth)
	}
	// A negative -maxjobtime or -checkpoint-evals would silently mean its
	// zero default, and a negative -grace would drain on an expired
	// context, exiting before running jobs journal their final checkpoints.
	if *maxJobTime < 0 {
		return fmt.Errorf("serve: -maxjobtime %v is negative (0: no ceiling)", *maxJobTime)
	}
	if *checkpointEvals < 0 {
		return fmt.Errorf("serve: -checkpoint-evals %d is negative (0: library default)", *checkpointEvals)
	}
	if *shutdownGrace < 0 {
		return fmt.Errorf("serve: -grace %v is negative", *shutdownGrace)
	}
	if *minHealth > 0 && !*sloOn {
		return fmt.Errorf("serve: -min-health needs -slo (the health score it sheds on)")
	}
	if fi, err := os.Stat(*modelDir); err != nil || !fi.IsDir() {
		return fmt.Errorf("serve: -models %q is not a directory", *modelDir)
	}
	if *storeDir == "" {
		*storeDir = filepath.Join(*modelDir, "store")
	}
	if *journalDir == "" {
		*journalDir = filepath.Join(*modelDir, "jobs")
	}
	if *atlasDir == "" {
		*atlasDir = filepath.Join(*modelDir, "atlas")
	}
	faults, err := resilience.ParseFaults(*faultsSpec)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}

	store, err := modelstore.Open(*storeDir)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	defer store.Close()
	registry := service.NewModelRegistry(*modelDir, *regCap)
	jobs := service.NewJobManager(registry, nil, *workers, *queueCap)
	jobs.SetMaxJobTime(*maxJobTime)
	jobs.SetCheckpointInterval(*checkpointEvals)
	if *atlasDir != "none" {
		mappings, err := atlas.Open(*atlasDir)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		defer mappings.Close()
		jobs.EnableAtlas(mappings, *atlasRO)
		if faults != nil {
			mappings.SetFailpoint(faults.Fail)
		}
	}
	if faults != nil {
		fmt.Fprintf(os.Stderr, "mindmappings serve: fault injection armed (%s)\n", *faultsSpec)
		jobs.SetFaults(faults)
		store.SetFailpoint(faults.Fail)
	}
	if *quotaRate > 0 || *quotaConc > 0 || *minHealth > 0 {
		jobs.EnableAdmission(resilience.AdmissionConfig{
			Rate:          *quotaRate,
			Burst:         *quotaBurst,
			MaxConcurrent: *quotaConc,
			// Shed per-tenant once the pending queue is nearly full: the
			// queue-full 503 would hit soon anyway, but shedding first keeps
			// light tenants admitted while heavy ones back off. MinHealth
			// adds SLO-driven shedding once -slo wires in a health score.
			Thresholds: resilience.Thresholds{QueueFraction: 0.9, MinHealth: *minHealth},
		})
	}
	if *journalDir != "none" {
		journal, err := resilience.OpenJournal(*journalDir)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		defer journal.Close()
		if faults != nil {
			journal.SetFailpoint(faults.Fail)
		}
		recovered, err := jobs.EnableJournal(journal)
		if err != nil {
			return fmt.Errorf("serve: recovering journal %s: %w", *journalDir, err)
		}
		if recovered > 0 {
			fmt.Fprintf(os.Stderr, "mindmappings serve: recovered %d journaled search job(s) from %s\n", recovered, *journalDir)
		}
	}
	pipeline := trainer.New(store, *trainWorkers, *trainQueue)
	api := service.NewServer(jobs, registry, nil).WithTraining(store, pipeline)
	if *sloOn {
		cfg := service.DefaultSLOConfig()
		cfg.Availability = *sloAvail
		cfg.QueueWaitMax = *sloQueueWait
		cfg.FirstEvalMax = *sloFirstEval
		if api.EnableSLO(cfg) == nil {
			return fmt.Errorf("serve: -slo set but every objective is disabled")
		}
	}
	if !*quiet {
		api.SetLogger(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	}
	if *pprofOn {
		api.EnablePprof()
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "mindmappings serve: listening on %s (models: %s, store: %s, workers: %d, train workers: %d)\n",
			*addr, *modelDir, *storeDir, jobs.Workers(), pipeline.Workers())
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "mindmappings serve: draining (journaled jobs resume on next start)")
	grace, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	// Drain order: flip /readyz first so load balancers stop routing, stop
	// the listener, then cancel search jobs — each emits a final checkpoint
	// that stays journaled for the next process — and stop the pools.
	jobs.BeginDrain()
	httpErr := srv.Shutdown(grace)
	jobErr := jobs.Drain(grace)
	trainErr := pipeline.Shutdown(grace)
	if httpErr != nil && !errors.Is(httpErr, http.ErrServerClosed) {
		return httpErr
	}
	if jobErr != nil {
		return jobErr
	}
	return trainErr
}
