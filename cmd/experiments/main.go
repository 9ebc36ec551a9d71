// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §2 for the index):
//
//	experiments -fig NAME
//
// runs one figure of the figures table below (experiments -h lists them),
// and -fig all, the default, runs every one in the table's order.
//
// -fast shrinks budgets for a quick sanity pass; -repeats, -evals, -time,
// and -latency scale toward the paper's methodology. -costmodel evaluates
// every experiment against a different registered backend (e.g. roofline).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mindmappings/internal/experiments"
)

func main() {
	opts, fig, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		// The FlagSet already reported the problem to stderr.
		os.Exit(2)
	}
	if err := run(experiments.New(opts), fig, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// parseFlags resolves the command line into harness options plus the
// selected figure. log receives progress output unless -quiet is set (and
// flag-parsing diagnostics always).
func parseFlags(args []string, log io.Writer) (experiments.Options, string, error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(log)
	fig := fs.String("fig", "all", figHelp())
	fast := fs.Bool("fast", false, "reduced problem set and budgets")
	repeats := fs.Int("repeats", 0, "override runs averaged per method/problem (paper: 100)")
	evals := fs.Int("evals", 0, "override iso-iteration budget (paper: ~1000)")
	isoTime := fs.Duration("time", 0, "override iso-time budget")
	latency := fs.Duration("latency", 0, "override emulated reference-model query latency")
	costModel := fs.String("costmodel", "", "cost-model backend to evaluate against (timeloop, roofline)")
	seed := fs.Int64("seed", 0, "override random seed")
	quiet := fs.Bool("quiet", false, "suppress progress logging")
	if err := fs.Parse(args); err != nil {
		return experiments.Options{}, "", err
	}
	if fs.NArg() > 0 {
		err := fmt.Errorf("unexpected arguments %v", fs.Args())
		fmt.Fprintln(log, "experiments:", err)
		return experiments.Options{}, "", err
	}

	opts := experiments.Defaults(*fast)
	if *repeats > 0 {
		opts.Repeats = *repeats
	}
	if *evals > 0 {
		opts.IsoIterations = *evals
	}
	if *isoTime > 0 {
		opts.IsoTime = *isoTime
	}
	if *latency > 0 {
		opts.QueryLatency = *latency
	}
	opts.CostModel = *costModel
	if *seed != 0 {
		opts.Seed = *seed
	}
	if !*quiet {
		opts.Log = log
	}
	return opts, *fig, nil
}

// figures lists every experiment in the order -fig all runs them.
var figures = []struct {
	name, desc string
	run        func(*session) error
}{
	{"t1", "Table 1 (target problems)", func(s *session) error { return s.h.Table1(s.w) }},
	{"3", "Figure 3 (cost surface)", func(s *session) error { return errOf(s.h.CostSurface(s.w)) }},
	{"space", "§5.1.3 map-space characterization", func(s *session) error { return errOf(s.h.SpaceStats(s.w)) }},
	{"7a", "Figure 7a (surrogate loss curves)", func(s *session) error { return errOf(s.h.LossCurve(s.w, "cnn-layer")) }},
	{"7b", "Figure 7b (loss-function comparison)", func(s *session) error { return errOf(s.h.LossFunctions(s.w, "cnn-layer")) }},
	{"7c", "Figure 7c (training-set-size sweep)", func(s *session) error { return errOf(s.h.DatasetSize(s.w, "cnn-layer")) }},
	{"ablate", "§4.1.3 output-representation ablation", func(s *session) error { return errOf(s.h.OutputReprAblation(s.w, "cnn-layer")) }},
	{"step", "§5.4.2 per-step cost", func(s *session) error { return errOf(s.h.PerStepCost(s.w)) }},
	{"components", "search-component ablation (extension)", func(s *session) error { return errOf(s.h.SearchComponents(s.w, "cnn-layer")) }},
	{"tail", "sampling ablation (extension)", func(s *session) error { return errOf(s.h.TailBiasAblation(s.w, "cnn-layer")) }},
	{"generality", "edge-accelerator generality check (extension)", func(s *session) error { return errOf(s.h.ArchGenerality(s.w)) }},
	{"costmodels", "cost-model backend head-to-head (extension)", func(s *session) error { return errOf(s.h.CostModelHeadToHead(s.w)) }},
	{"workloads", "GA vs MM across every registered workload (extension)", func(s *session) error { return errOf(s.h.WorkloadSweep(s.w)) }},
	{"atlas", "atlas nearest-neighbor warm-start study (extension)", func(s *session) error { return errOf(s.h.AtlasSweep(s.w)) }},
	{"5", "Figure 5 (iso-iteration comparison)", func(s *session) error { return s.render(false) }},
	{"6", "Figure 6 (iso-time comparison)", func(s *session) error { return s.render(true) }},
	{"summary", "Figures 5+6 headline ratios", (*session).summary},
}

// figHelp is the -fig usage text, one line per figure.
func figHelp() string {
	var b strings.Builder
	b.WriteString("which experiment to run:")
	for _, f := range figures {
		fmt.Fprintf(&b, "\n  %-11s %s", f.name, f.desc)
	}
	b.WriteString("\n  all         every experiment above, in this order")
	return b.String()
}

// errOf drops a driver's result, keeping its error.
func errOf[T any](_ T, err error) error { return err }

// session runs figures on one harness, writing to w. It runs each of
// Figures 5 and 6 at most once, so summary reports the comparisons the
// figures printed.
type session struct {
	h          *experiments.Harness
	w          io.Writer
	iso, timed *experiments.Comparison
}

// comparison returns Figure 6's comparison if timed, else Figure 5's,
// running it on first use.
func (s *session) comparison(timed bool) (*experiments.Comparison, error) {
	c, compute := &s.iso, s.h.RunIsoIteration
	if timed {
		c, compute = &s.timed, s.h.RunIsoTime
	}
	if *c == nil {
		cmp, err := compute()
		if err != nil {
			return nil, err
		}
		*c = cmp
	}
	return *c, nil
}

func (s *session) render(timed bool) error {
	cmp, err := s.comparison(timed)
	if err == nil {
		cmp.Render(s.w)
	}
	return err
}

func (s *session) summary() error {
	iso, err := s.comparison(false)
	if err != nil {
		return err
	}
	it, err := s.comparison(true)
	if err != nil {
		return err
	}
	fmt.Fprintln(s.w, "== headline summary ==")
	fmt.Fprintf(s.w, "iso-iteration ratios vs MM: SA %.2fx GA %.2fx RL %.2fx (paper 1.40/1.76/1.29)\n",
		iso.RatiosVsMM["SA"], iso.RatiosVsMM["GA"], iso.RatiosVsMM["RL"])
	fmt.Fprintf(s.w, "iso-time     ratios vs MM: SA %.2fx GA %.2fx RL %.2fx (paper 3.16/4.19/2.90)\n",
		it.RatiosVsMM["SA"], it.RatiosVsMM["GA"], it.RatiosVsMM["RL"])
	fmt.Fprintf(s.w, "MM vs algorithmic minimum: %.2fx iso-iteration, %.2fx iso-time (paper 5.3x)\n",
		iso.MMvsOracle, it.MMvsOracle)
	return nil
}

// run runs the named figure, or every figure for "all".
func run(h *experiments.Harness, fig string, w io.Writer) error {
	s := &session{h: h, w: w}
	ran := false
	for _, f := range figures {
		if fig != "all" && fig != f.name {
			continue
		}
		start := time.Now()
		if err := f.run(s); err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		fmt.Fprintf(w, "\n[%s done in %v]\n\n", f.name, time.Since(start).Round(time.Millisecond))
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}
