package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"mindmappings/internal/search"
	"mindmappings/internal/stats"
)

// MethodSeries is one method's averaged best-so-far curve on one problem.
type MethodSeries struct {
	Method string
	// Checkpoints holds the x-axis: evaluation counts (iso-iteration) or
	// elapsed durations (iso-time, stored as nanoseconds).
	Checkpoints []float64
	// Values holds the mean best-so-far normalized EDP at each checkpoint.
	Values []float64
	// FinalMean is the mean final best normalized EDP across repeats.
	FinalMean float64
	// EvalsMean is the mean number of evaluations performed.
	EvalsMean float64
	// StepTime is the mean time per evaluation on the run's clock:
	// wall-clock time plus the query latency charged to the run.
	StepTime time.Duration
}

// ProblemComparison holds all methods' series for one problem.
type ProblemComparison struct {
	Problem string
	Series  []MethodSeries
}

// FinalFor returns the final mean EDP of a method, or 0 if absent.
func (p *ProblemComparison) FinalFor(method string) float64 {
	for _, s := range p.Series {
		if s.Method == method {
			return s.FinalMean
		}
	}
	return 0
}

// Comparison is a full Figure-5 or Figure-6 style study.
type Comparison struct {
	Mode     string // "iso-iteration" or "iso-time"
	Problems []ProblemComparison
	// RatiosVsMM maps each baseline to geomean(method EDP / MM EDP) over
	// problems — the paper's headline metric (1.40x/1.76x/1.29x
	// iso-iteration, 3.16x/4.19x/2.90x iso-time).
	RatiosVsMM map[string]float64
	// MMvsOracle is the geomean of MM's final normalized EDP, the "5.3x
	// from the possibly unachievable lower bound" statistic.
	MMvsOracle float64
}

// checkpointsIter returns log-spaced evaluation checkpoints up to max.
func checkpointsIter(max int) []float64 {
	var out []float64
	for _, base := range []int{1, 2, 5} {
		for mul := 1; ; mul *= 10 {
			v := base * mul
			if v > max {
				goto done
			}
			out = append(out, float64(v))
		}
	done:
	}
	sort.Float64s(out)
	if len(out) == 0 || out[len(out)-1] != float64(max) {
		out = append(out, float64(max))
	}
	return out
}

// checkpointsTime returns log-spaced duration checkpoints up to max.
func checkpointsTime(max time.Duration) []float64 {
	var out []float64
	for d := time.Millisecond; d < max; d *= 2 {
		out = append(out, float64(d))
	}
	out = append(out, float64(max))
	return out
}

// RunIsoIteration reproduces Figure 5: every method gets the same number
// of cost-function evaluations on every Table-1 problem, repeated and
// averaged.
func (h *Harness) RunIsoIteration() (*Comparison, error) {
	return h.runComparison("iso-iteration", search.Budget{MaxEvals: h.opts.IsoIterations}, 0)
}

// RunIsoTime reproduces Figure 6: every method gets the same time budget,
// with the reference cost model's per-query latency charged to the
// methods that pay it.
func (h *Harness) RunIsoTime() (*Comparison, error) {
	return h.runComparison("iso-time", search.Budget{MaxTime: h.opts.IsoTime}, h.opts.QueryLatency)
}

func (h *Harness) runComparison(mode string, budget search.Budget, latency time.Duration) (*Comparison, error) {
	problems, err := h.Problems()
	if err != nil {
		return nil, err
	}
	checkpoints := checkpointsTime(budget.MaxTime)
	if mode == "iso-iteration" {
		checkpoints = checkpointsIter(budget.MaxEvals)
	}

	cmp := &Comparison{Mode: mode, RatiosVsMM: map[string]float64{}}
	var cells []cell
	for _, prob := range problems {
		methods, err := h.methods(prob.Algo.Name)
		if err != nil {
			return nil, err
		}
		pc := ProblemComparison{Problem: prob.Name}
		for _, method := range methods {
			pc.Series = append(pc.Series, MethodSeries{Method: method.Name(), Checkpoints: checkpoints})
			cells = append(cells, h.repeats(cell{prob: prob, searcher: method, budget: budget, latency: latency})...)
		}
		cmp.Problems = append(cmp.Problems, pc)
	}
	rows, err := h.run(cells, checkpoints)
	if err != nil {
		return nil, err
	}
	for _, pc := range cmp.Problems {
		for i := range pc.Series {
			pc.Series[i].average(rows[:h.opts.Repeats])
			rows = rows[h.opts.Repeats:]
		}
	}
	h.fillRatios(cmp)
	return cmp, nil
}

// average fills the series' means from its repeats' rows, summed in row
// order.
func (s *MethodSeries) average(rows []row) {
	n := float64(len(rows))
	sums := make([]float64, len(s.Checkpoints))
	var evalSum float64
	var elapsedSum time.Duration
	for _, r := range rows {
		for i, v := range r.at {
			sums[i] += v
		}
		evalSum += float64(r.Evals)
		elapsedSum += r.Elapsed
	}
	for _, sum := range sums {
		s.Values = append(s.Values, sum/n)
	}
	s.FinalMean = meanEDP(rows)
	s.EvalsMean = evalSum / n
	if evalSum > 0 {
		s.StepTime = time.Duration(float64(elapsedSum) / evalSum)
	}
}

// fillRatios computes the headline geomean ratios against Mind Mappings.
func (h *Harness) fillRatios(cmp *Comparison) {
	perMethod := map[string][]float64{}
	var mmFinals []float64
	for _, pc := range cmp.Problems {
		mm := pc.FinalFor("MM")
		if mm <= 0 {
			continue
		}
		mmFinals = append(mmFinals, mm)
		for _, s := range pc.Series {
			if s.Method == "MM" || s.FinalMean <= 0 {
				continue
			}
			perMethod[s.Method] = append(perMethod[s.Method], s.FinalMean/mm)
		}
	}
	for method, ratios := range perMethod {
		if g, err := stats.GeoMean(ratios); err == nil {
			cmp.RatiosVsMM[method] = g
		}
	}
	if g, err := stats.GeoMean(mmFinals); err == nil {
		cmp.MMvsOracle = g
	}
}

// Render writes the comparison as the textual analog of Figures 5/6 plus
// the summary ratios.
func (c *Comparison) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s comparison (normalized EDP vs algorithmic minimum; lower is better) ==\n", c.Mode)
	for _, pc := range c.Problems {
		fmt.Fprintf(w, "\n-- %s --\n", pc.Problem)
		fmt.Fprintf(w, "%-8s", "x")
		for _, s := range pc.Series {
			fmt.Fprintf(w, "%12s", s.Method)
		}
		fmt.Fprintln(w)
		if len(pc.Series) == 0 {
			continue
		}
		for i, cp := range pc.Series[0].Checkpoints {
			if c.Mode == "iso-time" {
				fmt.Fprintf(w, "%-8s", time.Duration(cp).Round(time.Millisecond))
			} else {
				fmt.Fprintf(w, "%-8d", int(cp))
			}
			for _, s := range pc.Series {
				if math.IsInf(s.Values[i], 1) { // no sample yet
					fmt.Fprintf(w, "%12s", "—")
				} else {
					fmt.Fprintf(w, "%12.1f", s.Values[i])
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-8s", "final")
		for _, s := range pc.Series {
			fmt.Fprintf(w, "%12.1f", s.FinalMean)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-8s", "evals")
		for _, s := range pc.Series {
			fmt.Fprintf(w, "%12.0f", s.EvalsMean)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-8s", "us/step")
		for _, s := range pc.Series {
			fmt.Fprintf(w, "%12.1f", float64(s.StepTime.Nanoseconds())/1e3)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nsummary: geomean EDP ratio vs MM (paper iso-iteration: SA 1.40x GA 1.76x RL 1.29x; iso-time: SA 3.16x GA 4.19x RL 2.90x)\n")
	for _, m := range []string{"SA", "GA", "RL", "Random"} {
		if r, ok := c.RatiosVsMM[m]; ok {
			fmt.Fprintf(w, "  %-7s %6.2fx\n", m, r)
		}
	}
	fmt.Fprintf(w, "  MM vs algorithmic minimum: %.2fx (paper: 5.3x)\n", c.MMvsOracle)
}
