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
	t, err := newTracker(ctx, budget)
	if err != nil {
		return Result{}, err
	}
	width := beamWidth
	if budget.MaxEvals > 0 && width > budget.MaxEvals/2 {
		width = max(budget.MaxEvals/2, 1)
	}

	rng := stats.NewRNG(ctx.Seed + 601)

	type entry struct {
		m   mapspace.Mapping
		edp float64
	}
	// Initial beam. Its first member is paid before any budget check,
	// every later candidate only after one.
	var beam []entry
	for i := 0; i < width && (i == 0 || !t.exhausted()); i++ {
		beam = append(beam, entry{m: ctx.Space.Random(rng)})
		var err error
		if beam[i].edp, err = t.payEval(&beam[i].m); err != nil {
			return Result{}, err
		}
	}

	// Mappings that fell out of the beam are spare storage for the next
	// round's children.
	var spare []mapspace.Mapping
	var children []entry
	for !t.exhausted() && len(beam) > 0 {
		children = append(children[:0], beam...)
		// Expand every parent's children, parent-major, paying for each as
		// it is made; the loop test above stands in for the first child's
		// budget check.
		for k := 0; k < len(beam)*beamBranch && (k == 0 || !t.exhausted()); k++ {
			children = append(children, entry{})
			child := &children[len(children)-1]
			if n := len(spare); n > 0 {
				child.m, spare = spare[n-1], spare[:n-1]
			}
			ctx.Space.PerturbInto(rng, &beam[k/beamBranch].m, &child.m)
			var err error
			if child.edp, err = t.payEval(&child.m); err != nil {
				return Result{}, err
			}
		}
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
