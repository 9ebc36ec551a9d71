package experiments

import (
	"cmp"
	"fmt"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/search"
)

// Every search an experiment makes is a cell, and run is the one place a
// cell is searched: figures build their cells, run them in a fixed order,
// and aggregate the rows (DESIGN.md §2).

// cell is one search: a searcher on a problem from a seed under a budget.
// The zero value of each remaining field keeps the harness default.
type cell struct {
	prob     loopnest.Problem
	searcher search.Searcher
	// label names the cell in progress lines and errors; empty means the
	// searcher's name.
	label  string
	seed   int64
	budget search.Budget
	// latency emulates the reference cost model's per-query latency.
	latency time.Duration
	// backend is the cost-model backend; empty means Options.CostModel.
	backend string
	// arch is the accelerator; the zero Spec means arch.Default sized to
	// the problem's operand count.
	arch arch.Spec
	// start, when non-nil, warm-starts the search from this mapping,
	// re-projected into the cell's map space.
	start *mapspace.Mapping
}

// row is one cell's outcome: its search result (final normalized EDP,
// evals, elapsed time, best mapping, trajectory) and its best-so-far
// normalized EDP at each checkpoint given to run.
type row struct {
	search.Result
	at []float64
}

// run searches the cells in order and returns one row per cell. A row
// depends on its cell alone. checkpoints are evaluation counts, or elapsed
// nanoseconds for a cell whose budget has no evaluation cap.
func (h *Harness) run(cells []cell, checkpoints []float64) ([]row, error) {
	rows := make([]row, len(cells))
	for i, c := range cells {
		label := cmp.Or(c.label, c.searcher.Name())
		ctx, err := search.NewContext(cmp.Or(c.backend, h.opts.CostModel),
			cmp.Or(c.arch, arch.Default(len(c.prob.Algo.Tensors)-1)), c.prob)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on %s: %w", label, c.prob.Name, err)
		}
		ctx.Seed, ctx.QueryLatency = c.seed, c.latency
		if c.start != nil {
			m := ctx.Space.Reproject(c.start)
			ctx.SeedMapping = &m
		}
		h.logf("%s on %s (seed %d)\n", label, c.prob.Name, c.seed)
		res, err := c.searcher.Search(ctx, c.budget)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on %s: %w", label, c.prob.Name, err)
		}
		rows[i].Result = res
		for _, cp := range checkpoints {
			if c.budget.MaxEvals > 0 {
				rows[i].at = append(rows[i].at, res.BestAt(int(cp)))
			} else {
				rows[i].at = append(rows[i].at, res.BestAtTime(time.Duration(cp)))
			}
		}
	}
	return rows, nil
}

// repeats returns Options.Repeats copies of c, the copy of repeat r seeded
// Options.Seed + 1000r.
func (h *Harness) repeats(c cell) []cell {
	out := make([]cell, h.opts.Repeats)
	for r := range out {
		out[r] = c
		out[r].seed = h.opts.Seed + int64(r)*1000
	}
	return out
}

// meanEDP is the mean final normalized EDP of rows, summed in row order.
func meanEDP(rows []row) float64 {
	sum := 0.0
	for _, r := range rows {
		sum += r.BestEDP
	}
	return sum / float64(len(rows))
}
