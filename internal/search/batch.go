package search

import (
	"math"

	"mindmappings/internal/mapspace"
)

// Batched evaluation: searchers that can name a whole neighborhood or
// population up front (GA offspring cohorts, SA pilot chains, beam
// expansions, random chunks) hand it to the tracker as one batch instead
// of one candidate at a time.
//
// A batch is exactly the per-candidate loop: candidates are evaluated and
// recorded in slice order, the budget is re-checked before every record
// just as a scalar searcher re-checks it before every payEval, and a
// batch stops (discarding the tail) the moment the budget expires.

// payEvalBatch evaluates candidates as paid reference-cost-model queries,
// recording them in order, and returns their normalized objective values.
// The returned slice (vals reused when it has capacity) may be shorter
// than ms: its length is the number of candidates recorded before the
// budget ran out. The first candidate is always evaluated (callers check
// the budget before building a batch, mirroring the scalar loops).
func (t *tracker) payEvalBatch(ms []mapspace.Mapping, vals []float64) ([]float64, error) {
	return t.evalBatch(ms, vals, true)
}

// scoreSurrogateBatch is payEvalBatch for Mind-Mappings-style surrogate
// iterations: each candidate charges one (cheap) surrogate query against
// the budget and is scored offline through the free cost-model path.
func (t *tracker) scoreSurrogateBatch(ms []mapspace.Mapping, vals []float64) ([]float64, error) {
	return t.evalBatch(ms, vals, false)
}

func (t *tracker) evalBatch(ms []mapspace.Mapping, vals []float64, paid bool) ([]float64, error) {
	if cap(vals) >= len(ms) {
		vals = vals[:0]
	} else {
		vals = make([]float64, 0, len(ms))
	}
	for i := range ms {
		if i > 0 && t.exhausted() {
			break
		}
		var (
			val float64
			err error
		)
		if paid {
			val, err = t.payEval(&ms[i])
		} else {
			val, err = t.scoreSurrogateStep(&ms[i])
		}
		if err != nil {
			return nil, err
		}
		if math.IsInf(val, 1) && t.ctx.canceled() {
			// Interrupted mid-evaluation: the candidate was never
			// recorded, so its sentinel value is not handed back either.
			break
		}
		vals = append(vals, val)
	}
	return vals, nil
}

// remainingEvals returns how many more candidates may be generated for a
// batch under an eval-capped budget (at least min 1 so a caller that
// passed the exhausted() gate can always build a single-candidate batch),
// or limit when only time-bounded.
func (t *tracker) remainingEvals(limit int) int {
	if t.budget.MaxEvals <= 0 {
		return limit
	}
	r := t.budget.MaxEvals - t.evals
	if r < 1 {
		r = 1
	}
	if r > limit {
		return limit
	}
	return r
}
