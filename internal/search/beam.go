package search

import (
	"slices"

	"mindmappings/internal/mapspace"
	"mindmappings/internal/stats"
)

// BeamSearch is the beam-search mapper used by Tiramisu and Adams et al.
// (paper Table 2): keep the Width best mappings found so far, expand each
// with Branch perturbed children per round, evaluate every child with the
// reference cost model, and keep the best Width of parents+children. It is
// an extra comparison point beyond the paper's four baselines.
type BeamSearch struct {
	// Width is the beam width. Defaults to 8.
	Width int
	// Branch is the number of children expanded per beam entry per round.
	// Defaults to 4.
	Branch int
}

// Name implements Searcher.
func (BeamSearch) Name() string { return "Beam" }

// Search implements Searcher.
func (bs BeamSearch) Search(ctx *Context, budget Budget) (Result, error) {
	if err := ctx.validate(); err != nil {
		return Result{}, err
	}
	if err := budget.validate(); err != nil {
		return Result{}, err
	}
	width := bs.Width
	if width <= 0 {
		width = 8
	}
	branch := bs.Branch
	if branch <= 0 {
		branch = 4
	}
	if budget.MaxEvals > 0 && width > budget.MaxEvals/2 {
		width = budget.MaxEvals / 2
	}
	if width < 1 {
		width = 1
	}

	rng := stats.NewRNG(ctx.Seed + 601)
	t := newTracker(ctx, budget)

	type entry struct {
		m   mapspace.Mapping
		edp float64
	}
	// Initial beam, evaluated as one batch (candidate generation consumes
	// the rng in the scalar loop's order, so trajectories are identical).
	var beam []entry
	cohort := make([]mapspace.Mapping, 0, width*branch)
	for i := 0; i < t.remainingEvals(width); i++ {
		cohort = append(cohort, ctx.Space.Random(rng))
	}
	vals, err := t.payEvalBatch(cohort, nil)
	if err != nil {
		return Result{}, err
	}
	for i, v := range vals {
		beam = append(beam, entry{cohort[i], v})
	}

	// Mappings that fell out of the beam, or were never recorded, are
	// spare storage for the next round's children.
	var spare []mapspace.Mapping
	var children []entry
	for !t.exhausted() && len(beam) > 0 {
		children = append(children[:0], beam...)
		// Expand the whole round — every parent's children, parent-major,
		// exactly the scalar generation order — then evaluate it as one
		// batch.
		cohort = cohort[:0]
		limit := t.remainingEvals(len(beam) * branch)
		for i := range beam {
			for c := 0; c < branch && len(cohort) < limit; c++ {
				var child mapspace.Mapping
				if n := len(spare); n > 0 {
					child, spare = spare[n-1], spare[:n-1]
				}
				ctx.Space.PerturbInto(rng, &beam[i].m, &child)
				cohort = append(cohort, child)
			}
		}
		if vals, err = t.payEvalBatch(cohort, vals); err != nil {
			return Result{}, err
		}
		for i, v := range vals {
			children = append(children, entry{cohort[i], v})
		}
		spare = append(spare, cohort[len(vals):]...)
		slices.SortStableFunc(children, func(a, b entry) int { return byEDP(a.edp, b.edp) })
		if len(children) > width {
			for _, e := range children[width:] {
				spare = append(spare, e.m)
			}
			children = children[:width]
		}
		beam, children = children, beam
	}
	return t.result(bs.Name()), nil
}
