// Command mindmappings is the command-line front end of the Mind Mappings
// framework: train surrogates (Phase 1), search for mappings (Phase 2),
// compare search methods, list workloads, and dump cost-surface data.
//
// Usage:
//
//	mindmappings algos
//	mindmappings train   -algo cnn-layer -config small -out cnn.surrogate
//	mindmappings train   -algo cnn-layer -store ./models/store -warm auto
//	mindmappings models  -store ./models/store
//	mindmappings search  -algo cnn-layer -surrogate cnn.surrogate -problem ResNet_Conv_4 -evals 1000
//	mindmappings search  -algo gemm -surrogate gemm.surrogate -shape M=512,N=512,K=512 -evals 1000
//	mindmappings train   -einsum "O[m,n] += A[m,k] * B[k,n]" -config tiny -out inline.surrogate
//	mindmappings compare -algo mttkrp    -surrogate mtt.surrogate -problem MTTKRP_0 -evals 1000
//	mindmappings surface -problem ResNet_Conv_4 -out surface.dat
//	mindmappings serve   -addr :8080 -models ./models
//
// Workloads resolve through the registry seeded by internal/workload
// (-algo) or compile from an inline einsum spec (-einsum); see
// DESIGN.md §6.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/core"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/modelstore"
	"mindmappings/internal/search"
	"mindmappings/internal/trainer"
	"mindmappings/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(os.Args[2:])
	case "search":
		err = cmdSearch(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "surface":
		err = cmdSurface(os.Args[2:])
	case "algos":
		err = cmdAlgos(os.Args[2:])
	case "models":
		err = cmdModels(os.Args[2:])
	case "atlas":
		err = cmdAtlas(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "diag":
		err = cmdDiag(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "mindmappings: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mindmappings:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `mindmappings <command> [flags]

commands:
  train     train a Phase-1 surrogate for a workload and save it
  search    run the Phase-2 gradient search for one problem
  compare   run Mind Mappings against SA/GA/RL/random on one problem
  surface   dump the Figure-3 style cost surface for a CNN problem
  algos     list the registered workloads (dims, tensors, example shapes)
  models    list, gc, or delete artifacts in a versioned model store
  atlas     build, list, gc, or delete entries in a precomputed mapping atlas
  serve     run the concurrent mapping-search + training HTTP service
  diag      snapshot a live server (status, metrics, flight recorder, traces) into one tar.gz

workloads are selected with -algo <name> (registered: %s) or defined
inline with -einsum "O[m,n] += A[m,k] * B[k,n]"

run "mindmappings <command> -h" for per-command flags
`, strings.Join(workload.Names(), ", "))
}

// costModelUsage documents the -model flag shared by search and compare.
const costModelUsage = "cost-model backend: timeloop (default, reference reuse analysis) or roofline (optimistic lower-bound model)"

// defaultAlgo keeps the historical -algo default; -einsum overrides it.
const defaultAlgo = "cnn-layer"

// einsumUsage documents the -einsum flag shared by train, search, compare.
const einsumUsage = `inline workload spec, e.g. "O[m,n] += A[m,k] * B[k,n]" (instead of -algo)`

// algoUsage documents the -algo flag: the list is generated from the
// registry, so it can never go stale.
func algoUsage() string {
	return "target workload: " + strings.Join(workload.Names(), ", ") +
		" (default " + defaultAlgo + ")"
}

// resolveAlgo resolves the -algo/-einsum flag pair into an algorithm: a
// registered workload name, or an inline einsum spec. Setting both is an
// error (the flags default to empty so an explicit -algo is never
// silently dropped); setting neither selects defaultAlgo.
func resolveAlgo(algoName, einsum string) (*loopnest.Algorithm, error) {
	if algoName != "" && einsum != "" {
		return nil, fmt.Errorf("use -algo or -einsum, not both")
	}
	if einsum != "" {
		return workload.CompileInline(einsum)
	}
	if algoName == "" {
		algoName = defaultAlgo
	}
	return loopnest.AlgorithmByName(algoName)
}

// newMapper builds the mapper for a workload with the matching accelerator
// datapath.
func newMapper(algoName, einsum string) (*core.Mapper, error) {
	algo, err := resolveAlgo(algoName, einsum)
	if err != nil {
		return nil, err
	}
	return core.NewMapper(algo, arch.Default(len(algo.Tensors)-1))
}

// resolveProblem finds a Table-1 problem by name, or parses an explicit
// shape: comma-separated sizes in the workload's canonical dimension order
// (cnn-layer: N,K,C,X,Y,R,S), or name=size pairs in any order
// (e.g. "M=256,N=256,K=512").
func resolveProblem(algo *loopnest.Algorithm, problemName, shape string) (loopnest.Problem, error) {
	if problemName != "" {
		p, err := loopnest.Table1Problem(problemName, algo.Name)
		if err != nil {
			return loopnest.Problem{}, fmt.Errorf("%w (see Table 1 names)", err)
		}
		return p, nil
	}
	if shape == "" {
		return loopnest.Problem{}, fmt.Errorf("need -problem or -shape")
	}
	parts := strings.Split(shape, ",")
	if strings.Contains(parts[0], "=") {
		dims := make(map[string]int, len(parts))
		for _, p := range parts {
			name, val, ok := strings.Cut(p, "=")
			if !ok {
				return loopnest.Problem{}, fmt.Errorf("bad shape element %q: want name=size", p)
			}
			v, err := strconv.Atoi(strings.TrimSpace(val))
			if err != nil {
				return loopnest.Problem{}, fmt.Errorf("bad shape element %q: %w", p, err)
			}
			dn := strings.TrimSpace(name)
			if _, dup := dims[dn]; dup {
				return loopnest.Problem{}, fmt.Errorf("shape sets %s twice", dn)
			}
			dims[dn] = v
		}
		return algo.ProblemFromDims("custom", dims)
	}
	sizes := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return loopnest.Problem{}, fmt.Errorf("bad shape element %q: %w", p, err)
		}
		sizes = append(sizes, v)
	}
	if len(sizes) != algo.NumDims() {
		return loopnest.Problem{}, fmt.Errorf("%s shape needs %d sizes in order %s",
			algo.Name, algo.NumDims(), strings.Join(algo.DimNames, ","))
	}
	return algo.NewProblem("custom", sizes)
}

// cmdTrain runs Phase 1 through the same trainer.Pipeline the service
// uses: generate → train (warm-started when asked) → publish into a
// versioned artifact store. Without -store the artifact lands in a
// temporary store and only the -out file survives; with -store the run is
// versioned, warm-startable, and resolvable by `"model":"auto"` searches.
func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	algoName := fs.String("algo", "", algoUsage())
	einsum := fs.String("einsum", "", einsumUsage)
	cfgName := fs.String("config", "small", "phase-1 configuration: tiny, small, paper")
	out := fs.String("out", "surrogate.bin", `output surrogate file ("" to skip and only publish to -store)`)
	storeDir := fs.String("store", "", "publish into this versioned artifact store (the directory `mindmappings serve -store` and `mindmappings models` use)")
	warm := fs.String("warm", "", `warm-start parent: "auto" (best stored artifact of this workload), an artifact ID, or empty for a cold start; needs -store`)
	label := fs.String("name", "", "artifact label recorded in the store manifest")
	model := fs.String("model", "", "cost-model backend that labels the training set: timeloop (default) or roofline; search with the same -model so the surrogate approximates the f it is scored against")
	samples := fs.Int("samples", 0, "override training-set size")
	epochs := fs.Int("epochs", 0, "override training epochs")
	seed := fs.Int64("seed", 1, "random seed (0 keeps the named config's default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" && *storeDir == "" {
		return fmt.Errorf("train: nothing to produce — set -out, -store, or both")
	}
	if *warm != "" && *storeDir == "" {
		return fmt.Errorf("train: -warm needs -store (the parent artifact lives there)")
	}
	dir := *storeDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "mindmappings-store-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	store, err := modelstore.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	req := trainer.Request{
		Algo:      *algoName,
		Einsum:    *einsum,
		Config:    *cfgName,
		Samples:   *samples,
		Epochs:    *epochs,
		CostModel: *model,
		Seed:      *seed,
		Name:      *label,
		Warm:      *warm,
	}
	if req.Algo == "" && req.Einsum == "" {
		req.Algo = defaultAlgo
	}
	job, err := runTrainingJob(store, req)
	if err != nil {
		return err
	}
	m := job.Artifact
	lineage := "cold start"
	if m.Parent != "" {
		lineage = "warm-started from " + m.Parent
	}
	fmt.Printf("trained %s surrogate in %v (final train loss %.4f, test loss %.4f, %s)\n",
		m.Algo, time.Duration(m.TrainSeconds*float64(time.Second)).Round(time.Second), m.FinalTrain, m.FinalTest, lineage)
	if *storeDir != "" {
		fmt.Printf("published artifact %s (version %d) -> %s\n", m.ID, m.Version, dir)
	}
	if *out != "" {
		blob, err := store.Blob(m.ID)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

// runTrainingJob drives one request through a single-worker pipeline,
// mirroring the job's live progress to stderr and cancelling it cleanly on
// SIGINT/SIGTERM.
func runTrainingJob(store *modelstore.Store, req trainer.Request) (trainer.Job, error) {
	pipeline := trainer.New(store, 1, 1)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		pipeline.Shutdown(ctx)
	}()
	job, err := pipeline.Submit(req)
	if err != nil {
		return trainer.Job{}, err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		pipeline.Cancel(job.ID)
	}()
	go func() {
		var last trainer.Progress
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for range tick.C {
			snap, ok := pipeline.Get(job.ID)
			if !ok || snap.Status.Terminal() {
				return
			}
			pr := snap.Progress
			switch {
			case pr.Phase == trainer.PhaseGenerate && pr.SamplesDone != last.SamplesDone:
				fmt.Fprintf(os.Stderr, "generate  %d/%d samples\n", pr.SamplesDone, pr.Samples)
			case pr.Phase == trainer.PhaseTrain && pr.Epoch != last.Epoch:
				fmt.Fprintf(os.Stderr, "epoch %3d/%d  train %.6f  test %.6f\n",
					pr.Epoch, pr.Epochs, pr.TrainLoss, pr.TestLoss)
			}
			last = pr
		}
	}()
	done, err := pipeline.Wait(context.Background(), job.ID)
	if err != nil {
		return trainer.Job{}, err
	}
	switch done.Status {
	case trainer.StatusDone:
		return done, nil
	case trainer.StatusCancelled:
		return trainer.Job{}, fmt.Errorf("training interrupted at %s (epoch %d/%d)",
			done.Progress.Phase, done.Progress.Epoch, done.Progress.Epochs)
	default:
		return trainer.Job{}, fmt.Errorf("training failed: %s", done.Error)
	}
}

func loadMapperWithSurrogate(algoName, einsum, path string) (*core.Mapper, error) {
	mp, err := newMapper(algoName, einsum)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := mp.LoadSurrogate(f); err != nil {
		return nil, err
	}
	return mp, nil
}

func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	algoName := fs.String("algo", "", algoUsage())
	einsum := fs.String("einsum", "", einsumUsage)
	surPath := fs.String("surrogate", "surrogate.bin", "trained surrogate file")
	problemName := fs.String("problem", "", "Table-1 problem name")
	shape := fs.String("shape", "", "explicit problem shape: sizes in canonical dim order (cnn-layer: 16,256,256,12,12,3,3) or name=size pairs (M=256,N=256,K=512)")
	model := fs.String("model", "", costModelUsage)
	evals := fs.Int("evals", 1000, "surrogate-query budget")
	maxTime := fs.Duration("time", 0, "wall-clock budget (overrides -evals when set)")
	objective := fs.String("objective", "edp", "optimization objective: edp, ed2p, energy, delay")
	seed := fs.Int64("seed", 1, "random seed")
	progress := fs.Bool("progress", false, "print live best-cost/throughput lines to stderr while searching")
	timeout := fs.Duration("timeout", 0, "anytime deadline: stop when it expires and report the best mapping found so far, marked degraded (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	obj, err := search.ParseObjective(*objective)
	if err != nil {
		return err
	}
	mp, err := loadMapperWithSurrogate(*algoName, *einsum, *surPath)
	if err != nil {
		return err
	}
	mp.CostModel = *model
	prob, err := resolveProblem(mp.Algo, *problemName, *shape)
	if err != nil {
		return err
	}
	pc, err := mp.NewProblemContext(prob)
	if err != nil {
		return err
	}
	pc.Objective = obj
	if *progress {
		pc.Progress = progressPrinter(os.Stderr)
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		pc.Ctx = ctx
	}
	budget := search.Budget{MaxEvals: *evals}
	if *maxTime > 0 {
		budget = search.Budget{MaxTime: *maxTime}
	}
	res, err := mp.FindMapping(pc, budget, *seed)
	if err != nil {
		return err
	}
	degraded := pc.Ctx != nil && pc.Ctx.Err() != nil
	if degraded && res.Evals == 0 {
		return fmt.Errorf("search: -timeout %v expired before any evaluation completed", *timeout)
	}
	cost, norm, err := pc.Evaluate(&res.Best)
	if err != nil {
		return err
	}
	fmt.Printf("problem    %s\n", prob.String())
	if degraded {
		fmt.Printf("status     degraded: -timeout %v expired before the budget; best-so-far result\n", *timeout)
	}
	fmt.Printf("evals      %d in %v\n", res.Evals, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("EDP        %.4g J*s (%.1fx algorithmic minimum)\n", cost.EDP, norm)
	fmt.Printf("energy     %.4g pJ, cycles %.4g, PE utilization %.1f%%\n",
		cost.TotalEnergyPJ, cost.Cycles, 100*cost.Utilization)
	fmt.Printf("mapping    %s\n", res.Best.String())
	fmt.Printf("\nloop nest:\n%s", pc.Space.RenderLoopNest(&res.Best))
	fmt.Printf("\ncost report:\n")
	cost.Render(os.Stdout, prob.Algo)
	return nil
}

// progressPrinter returns a search.Progress hook that mirrors the live
// trajectory to w: every improvement, and of the power-of-two heartbeat
// samples at most one line per 500ms. It is the CLI twin of the service's
// SSE stream — both observe the same trajectory samples, which a
// -progress run and a job's /events endpoint record alike. The hook is
// invoked from the searcher goroutine only, so the closure state needs no
// locking.
func progressPrinter(w io.Writer) func(search.Progress) {
	var lastLine time.Time
	return func(p search.Progress) {
		now := time.Now()
		if !p.Improved && now.Sub(lastLine) < 500*time.Millisecond {
			return
		}
		lastLine = now
		perSec := 0.0
		if s := p.Elapsed.Seconds(); s > 0 {
			perSec = float64(p.Eval) / s
		}
		mark := " "
		if p.Improved {
			mark = "*"
		}
		fmt.Fprintf(w, "%s eval %8d  best %12.4g  %9.0f evals/s  %v\n",
			mark, p.Eval, p.Best, perSec, p.Elapsed.Round(10*time.Millisecond))
	}
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	algoName := fs.String("algo", "", algoUsage())
	einsum := fs.String("einsum", "", einsumUsage)
	surPath := fs.String("surrogate", "surrogate.bin", "trained surrogate file")
	problemName := fs.String("problem", "", "Table-1 problem name")
	shape := fs.String("shape", "", "explicit problem shape (canonical sizes or name=size pairs)")
	model := fs.String("model", "", costModelUsage)
	evals := fs.Int("evals", 1000, "evaluation budget per method")
	maxTime := fs.Duration("time", 0, "wall-clock budget per method (overrides -evals)")
	latency := fs.Duration("latency", 2*time.Millisecond, "emulated reference-cost-model latency (iso-time only)")
	rlHidden := fs.Int("rlhidden", 64, "RL network width (paper: 300)")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mp, err := loadMapperWithSurrogate(*algoName, *einsum, *surPath)
	if err != nil {
		return err
	}
	mp.CostModel = *model
	prob, err := resolveProblem(mp.Algo, *problemName, *shape)
	if err != nil {
		return err
	}
	budget := search.Budget{MaxEvals: *evals}
	isoTime := *maxTime > 0
	if isoTime {
		budget = search.Budget{MaxTime: *maxTime}
	}
	mm, err := mp.MindMappingsSearcher()
	if err != nil {
		return err
	}
	methods := append(core.Baselines(*rlHidden), mm)
	fmt.Printf("%-8s %12s %10s %12s %12s\n", "method", "best EDP/min", "evals", "elapsed", "us/step")
	for _, method := range methods {
		pc, err := mp.NewProblemContext(prob)
		if err != nil {
			return err
		}
		if isoTime && method.Name() != "MM" {
			pc.QueryLatency = *latency
		}
		res, err := mp.SearchWith(method, pc, budget, *seed)
		if err != nil {
			return err
		}
		perStep := 0.0
		if res.Evals > 0 {
			perStep = float64(res.Elapsed.Microseconds()) / float64(res.Evals)
		}
		fmt.Printf("%-8s %12.1f %10d %12v %12.1f\n",
			method.Name(), res.BestEDP, res.Evals, res.Elapsed.Round(time.Millisecond), perStep)
	}
	return nil
}

func cmdSurface(args []string) error {
	fs := flag.NewFlagSet("surface", flag.ExitOnError)
	problemName := fs.String("problem", "ResNet_Conv_4", "Table-1 CNN problem name")
	out := fs.String("out", "", "output file (default stdout)")
	seed := fs.Int64("seed", 1, "random seed for the fixed non-swept attributes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	algo, err := loopnest.AlgorithmByName("cnn-layer")
	if err != nil {
		return err
	}
	prob, err := resolveProblem(algo, *problemName, "")
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return writeSurface(w, prob, *seed)
}
