package search

import (
	"context"
	"math"
	"testing"

	"mindmappings/internal/costmodel"
	"mindmappings/internal/mapspace"
)

// valueLog wraps a cost model and logs the normalized objective value of
// every query it answers, in order. Every query a searcher makes is one
// evaluation, so the log is the per-evaluation truth a recorded trajectory
// is checked against.
type valueLog struct {
	costmodel.Evaluator
	ctx    *Context
	values []float64
}

func (v *valueLog) EvaluateInto(ctx context.Context, m *mapspace.Mapping, c *costmodel.Cost) error {
	if err := v.Evaluator.EvaluateInto(ctx, m, c); err != nil {
		return err
	}
	v.values = append(v.values, v.ctx.Objective.normalized(c, v.ctx.Bound))
	return nil
}

// recordedPoint is one sample the recording rule must keep: the 1-based
// eval index, the best-so-far value after it, and whether it improved.
type recordedPoint struct {
	eval     int
	best     float64
	improved bool
}

// ruleSamples applies the recording rule to a per-evaluation value log:
// every evaluation that lowers the best-so-far value, plus every one whose
// 1-based index is a power of two.
func ruleSamples(values []float64) []recordedPoint {
	var want []recordedPoint
	best := math.Inf(1)
	for i, v := range values {
		improved := v < best
		if improved {
			best = v
		}
		if e := i + 1; improved || e&(e-1) == 0 {
			want = append(want, recordedPoint{e, best, improved})
		}
	}
	return want
}

// loggedSearch runs s with both the cost model and Context.Progress logged.
func loggedSearch(t *testing.T, s Searcher, seed int64, budget Budget) (Result, []float64, []Progress) {
	t.Helper()
	ctx := conv1dContext(t, seed)
	log := &valueLog{Evaluator: ctx.Model, ctx: ctx}
	ctx.Model = log
	var got []Progress
	ctx.Progress = func(p Progress) { got = append(got, p) }
	res, err := s.Search(ctx, budget)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	if len(log.values) != res.Evals {
		t.Fatalf("%s: %d cost-model queries for %d evals", s.Name(), len(log.values), res.Evals)
	}
	return res, log.values, got
}

func ruleSearchers(t *testing.T) []Searcher {
	sur := conv1dSurrogate(t)
	return []Searcher{GeneticAlgorithm{}, SimulatedAnnealing{}, SurrogateSA{Surrogate: sur},
		BeamSearch{}, RandomSearch{}, RL{Hidden: 24}, MindMappings{Surrogate: sur}}
}

// TestTrajectoryStride pins the thinning rule for every searcher: the
// recorded samples are exactly the evaluations that lower the best-so-far
// value plus those whose index is a power of two, each carrying the
// best-so-far value after it, and the last sample carries the final best.
func TestTrajectoryStride(t *testing.T) {
	for _, s := range ruleSearchers(t) {
		res, values, _ := loggedSearch(t, s, 7, Budget{MaxEvals: 200})
		want := ruleSamples(values)
		if len(res.Trajectory) != len(want) {
			t.Fatalf("%s: %d samples, want %d (improvements plus powers of two up to %d)",
				s.Name(), len(res.Trajectory), len(want), res.Evals)
		}
		for i, w := range want {
			if s := res.Trajectory[i]; s.Eval != w.eval || s.BestEDP != w.best {
				t.Fatalf("sample %d is (%d, %v), want (%d, %v)", i, s.Eval, s.BestEDP, w.eval, w.best)
			}
		}
		if len(res.Trajectory) >= res.Evals {
			t.Fatalf("%s: rule did not thin the trajectory: %d samples for %d evals",
				s.Name(), len(res.Trajectory), res.Evals)
		}
		if last := res.Trajectory[len(res.Trajectory)-1]; last.BestEDP != res.BestEDP {
			t.Fatalf("%s: final sample carries %v, best is %v", s.Name(), last.BestEDP, res.BestEDP)
		}
	}
}

// TestProgressHookMirrorsTrajectory pins that Context.Progress fires once
// per recorded sample, for every searcher, with the same eval, best and
// elapsed time as the sample.
func TestProgressHookMirrorsTrajectory(t *testing.T) {
	for _, s := range ruleSearchers(t) {
		t.Run(s.Name(), func(t *testing.T) {
			res, _, got := loggedSearch(t, s, 7, Budget{MaxEvals: 120})
			if len(got) != len(res.Trajectory) {
				t.Fatalf("progress fired %d times, trajectory has %d samples", len(got), len(res.Trajectory))
			}
			for i, p := range got {
				if s := res.Trajectory[i]; p.Eval != s.Eval || p.Best != s.BestEDP || p.Elapsed != s.Elapsed {
					t.Fatalf("progress %d %+v != sample %+v", i, p, s)
				}
			}
		})
	}
}

// TestProgressHookRespectsStride pins that the hook is thinned by the same
// rule as the trajectory: it fires at exactly the improving evaluations and
// the power-of-two heartbeats, and its Improved flag is set exactly on the
// improving ones.
func TestProgressHookRespectsStride(t *testing.T) {
	for _, s := range ruleSearchers(t) {
		res, values, got := loggedSearch(t, s, 3, Budget{MaxEvals: 200})
		want := ruleSamples(values)
		if len(got) != len(want) {
			t.Fatalf("%s: progress fired %d times, want %d", s.Name(), len(got), len(want))
		}
		for i, w := range want {
			if p := got[i]; p.Eval != w.eval || p.Best != w.best || p.Improved != w.improved {
				t.Fatalf("%s: progress %d is (%d, %v, improved %v), want (%d, %v, %v)",
					s.Name(), i, p.Eval, p.Best, p.Improved, w.eval, w.best, w.improved)
			}
		}
		if len(got) >= res.Evals {
			t.Fatalf("%s: rule did not thin the hook: %d calls for %d evals", s.Name(), len(got), res.Evals)
		}
	}
}

// TestProgressNilIsFree pins that searches without the hook behave
// identically (same trajectory) — the hook is observation only.
func TestProgressNilIsFree(t *testing.T) {
	run := func(hook bool) Result {
		ctx := conv1dContext(t, 11)
		if hook {
			ctx.Progress = func(Progress) {}
		}
		res, err := (GeneticAlgorithm{}).Search(ctx, Budget{MaxEvals: 150})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(false), run(true)
	if a.BestEDP != b.BestEDP || a.Evals != b.Evals || len(a.Trajectory) != len(b.Trajectory) {
		t.Fatalf("hook changed the search: %+v vs %+v", a.Evals, b.Evals)
	}
}
