package search

import (
	"slices"

	"mindmappings/internal/mapspace"
	"mindmappings/internal/stats"
)

// BeamSearch is the beam-search mapper used by Tiramisu and Adams et al.
// (paper Table 2): keep the beamWidth best mappings found so far, expand
// each with beamBranch perturbed children per round, evaluate every child
// with the reference cost model, and keep the best beamWidth of
// parents+children. It is an extra comparison point beyond the paper's
// four baselines.
type BeamSearch struct{}

// The beam-search settings. The paper runs no beam search, so these are
// this implementation's choices. A budget below two beams' worth of evals
// narrows the beam to MaxEvals/2, and to no fewer than 1.
const (
	beamWidth  = 8
	beamBranch = 4
)

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
	width := beamWidth
	if budget.MaxEvals > 0 && width > budget.MaxEvals/2 {
		width = max(budget.MaxEvals/2, 1)
	}

	rng := stats.NewRNG(ctx.Seed + 601)
	t := newTracker(ctx, budget)

	type entry struct {
		m   mapspace.Mapping
		edp float64
	}
	// Initial beam, evaluated as one batch (candidate generation consumes
	// the rng in a per-candidate loop's order, so trajectories are
	// identical).
	var beam []entry
	cohort := make([]mapspace.Mapping, 0, width*beamBranch)
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
		limit := t.remainingEvals(len(beam) * beamBranch)
		for i := range beam {
			for c := 0; c < beamBranch && len(cohort) < limit; c++ {
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
