package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"mindmappings/internal/arch"
	"mindmappings/internal/atlas"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/modelstore"
	"mindmappings/internal/service"
)

// cmdAtlas manages a precomputed mapping atlas: `atlas build` sweeps a
// workload×shape grid offline and publishes the solved mappings;
// otherwise it lists, garbage-collects, or deletes entries, mirroring
// `mindmappings models` for the model store.
func cmdAtlas(args []string) error {
	if len(args) > 0 && args[0] == "build" {
		return cmdAtlasBuild(args[1:])
	}
	fs := flag.NewFlagSet("atlas", flag.ExitOnError)
	atlasDir := fs.String("atlas", "", "atlas directory (required)")
	gc := fs.Bool("gc", false, "drop entries with drifted workload/arch fingerprints")
	del := fs.String("delete", "", "delete one entry by ID")
	verbose := fs.Bool("v", false, "also print fingerprints and keys")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *atlasDir == "" {
		return fmt.Errorf("atlas: -atlas is required")
	}
	a, err := atlas.Open(*atlasDir)
	if err != nil {
		return err
	}
	defer a.Close()
	if *del != "" {
		if err := a.Delete(*del); err != nil {
			return err
		}
		fmt.Printf("deleted %s\n", *del)
		return nil
	}
	if *gc {
		removed, err := a.GC(atlasEntryStale)
		if err != nil {
			return err
		}
		fmt.Printf("gc: removed %d entries\n", len(removed))
		for _, id := range removed {
			fmt.Println("  " + id)
		}
		return nil
	}

	entries := a.List()
	if len(entries) == 0 {
		fmt.Printf("atlas %s is empty (populate with `mindmappings atlas build` or serve write-back)\n", *atlasDir)
		return nil
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ID\tALGO\tSHAPE\tOBJ\tBEST\tEVALS\tMETHOD\tSOURCE\tCREATED")
	for _, e := range entries {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%.4f\t%d\t%s\t%s\t%s\n",
			e.ID, e.Algo, shapeString(e.Shape), e.Objective, e.BestEDP,
			e.Evals, e.Method, e.Source, e.Created.Format("2006-01-02 15:04"))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if *verbose {
		for _, e := range entries {
			fmt.Printf("\n%s (%s %s v%d)\n", e.ID, e.Algo, shapeString(e.Shape), e.Version)
			fmt.Printf("  key / family  %s / %s\n", e.Key, e.Family)
			fmt.Printf("  workload fp   %s\n", e.AlgoFP)
			fmt.Printf("  arch fp       %s\n", e.ArchFP)
			fmt.Printf("  cost model    %s, objective %s\n", e.CostModel, e.Objective)
		}
	}
	return nil
}

// atlasEntryStale is the `atlas -gc` staleness predicate: an entry whose
// workload is still registered but whose recorded fingerprints no longer
// match the current definition (the workload or the default accelerator
// drifted) can never be looked up again — its key embeds the old
// fingerprints — so it is dead weight. Entries for unregistered workloads
// (inline einsums) are kept: there is nothing to check them against.
func atlasEntryStale(e atlas.Entry) bool {
	algo, err := loopnest.AlgorithmByName(e.Algo)
	if err != nil {
		return false
	}
	if algo.Fingerprint() != e.AlgoFP {
		return true
	}
	return modelstore.ArchFingerprint(arch.Default(len(algo.Tensors)-1)) != e.ArchFP
}

func shapeString(shape []int) string {
	parts := make([]string, len(shape))
	for i, s := range shape {
		parts[i] = strconv.Itoa(s)
	}
	return strings.Join(parts, "x")
}

// cmdAtlasBuild is the offline sweep: it fans the workload×shape grid
// through a local JobManager (the same execution path serve uses) with
// atlas write-back enabled, so every solved grid point is published under
// source "build". A later `serve -atlas` on the same directory answers
// those exact shapes by lookup and warm-starts everything nearby.
func cmdAtlasBuild(args []string) error {
	fs := flag.NewFlagSet("atlas build", flag.ExitOnError)
	algoName := fs.String("algo", "", algoUsage())
	einsum := fs.String("einsum", "", einsumUsage)
	grid := fs.String("grid", "", `shape grid as dim=size|size pairs, e.g. "M=64|128|256,N=128,K=512|1024" (cartesian product over the algorithm's dims; unlisted dims need exactly one value... so list them all)`)
	atlasDir := fs.String("atlas", "", "atlas directory to publish into (required)")
	searcher := fs.String("searcher", "ga", "search method per grid point: mm (needs -surrogate), sa, ga, rl, random")
	surName := fs.String("surrogate", "", "surrogate file name inside -models, for -searcher mm")
	modelsDir := fs.String("models", ".", "surrogate directory, for -searcher mm")
	model := fs.String("model", "", costModelUsage)
	evals := fs.Int("evals", 2000, "cost-model evaluation budget per grid point")
	objective := fs.String("objective", "edp", "optimization objective: edp, ed2p, energy, delay")
	seed := fs.Int64("seed", 1, "base RNG seed (grid point i searches with seed+i)")
	workers := fs.Int("workers", 0, "concurrent grid points (default: runtime.NumCPU())")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *atlasDir == "" {
		return fmt.Errorf("atlas build: -atlas is required")
	}
	if *grid == "" {
		return fmt.Errorf("atlas build: -grid is required")
	}
	if *algoName == "" && *einsum == "" {
		*algoName = defaultAlgo
	}
	shapes, err := parseGrid(*grid)
	if err != nil {
		return fmt.Errorf("atlas build: %w", err)
	}

	a, err := atlas.Open(*atlasDir)
	if err != nil {
		return err
	}
	defer a.Close()
	registry := service.NewModelRegistry(*modelsDir, 0)
	// Queue capacity covers the whole grid so submission never blocks.
	jobs := service.NewJobManager(registry, nil, *workers, len(shapes)+1)
	defer jobs.Shutdown(context.Background())
	jobs.SetAtlasSource("build")
	jobs.EnableAtlas(a, false)

	fmt.Fprintf(os.Stderr, "atlas build: %d grid points -> %s\n", len(shapes), *atlasDir)
	ids := make([]string, 0, len(shapes))
	for i, sh := range shapes {
		req := service.SearchRequest{
			Algo:      *algoName,
			Einsum:    *einsum,
			Dims:      sh,
			Searcher:  *searcher,
			Model:     *surName,
			CostModel: *model,
			Evals:     *evals,
			Objective: *objective,
			Seed:      *seed + int64(i),
		}
		job, err := jobs.Submit(req)
		if err != nil {
			return fmt.Errorf("atlas build: grid point %v: %w", sh, err)
		}
		if job.Status == service.JobDone {
			// Already in the atlas: the exact-hit path answered it.
			fmt.Fprintf(os.Stderr, "  %v: already solved (atlas hit)\n", sh)
			continue
		}
		ids = append(ids, job.ID)
	}
	failed := 0
	for _, id := range ids {
		job, err := jobs.Wait(context.Background(), id)
		if err != nil {
			return err
		}
		if job.Status != service.JobDone {
			failed++
			fmt.Fprintf(os.Stderr, "  job %s: %s (%s)\n", id, job.Status, job.Error)
			continue
		}
		if job.Result != nil {
			fmt.Fprintf(os.Stderr, "  %v evals=%d best=%.4f\n",
				job.Request.Dims, job.Result.Evals, job.Result.BestEDP)
		}
	}
	st := a.Stats()
	fmt.Printf("atlas %s: %d entries (%d families)\n",
		*atlasDir, st.Entries, st.Families)
	if failed > 0 {
		return fmt.Errorf("atlas build: %d of %d grid points failed", failed, len(shapes))
	}
	return nil
}

// parseGrid expands "M=64|128,N=32,K=512|1024" into the cartesian product
// of per-dimension size lists, as dim-name → size maps in deterministic
// order (last-listed dimension varies fastest).
func parseGrid(spec string) ([]map[string]int, error) {
	type axis struct {
		name  string
		sizes []int
	}
	var axes []axis
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, vals, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("grid term %q is not dim=size|size", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("grid dimension %q listed twice", name)
		}
		seen[name] = true
		ax := axis{name: name}
		for _, v := range strings.Split(vals, "|") {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("grid size %q for %s is not a positive integer", v, name)
			}
			ax.sizes = append(ax.sizes, n)
		}
		axes = append(axes, ax)
	}
	if len(axes) == 0 {
		return nil, fmt.Errorf("empty grid")
	}
	points := []map[string]int{{}}
	for _, ax := range axes {
		next := make([]map[string]int, 0, len(points)*len(ax.sizes))
		for _, p := range points {
			for _, size := range ax.sizes {
				q := make(map[string]int, len(p)+1)
				for k, v := range p {
					q[k] = v
				}
				q[ax.name] = size
				next = append(next, q)
			}
		}
		points = next
	}
	return points, nil
}
