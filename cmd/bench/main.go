// Command bench is the mapping service's benchmark. It boots the real
// service in-process on loopback, trains its surrogates through POST
// /v1/train, replays a seeded, fixed-length request list over HTTP from
// two closed-loop clients, checks every answer, and prints each metric by
// name with its unit, ending with one JSON line.
//
//	go -C cmd/bench run . -workload <name|all> -seed N [-seconds S] [-trace 0|1|spans.json]
//
// See README.md for the workloads, the metrics and how to compare runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// runDeadline bounds one workload run, so a wedged server fails the run
// instead of hanging it.
const runDeadline = 170 * time.Second

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds int
	// requests, when positive, replaces the workload's measured request
	// count (the toy-scale test runs use it).
	requests int
	// setups is how many times an untraced run sets up; setup_s is their
	// median. A traced run sets up twice: once for the untraced reference
	// pass, once for the traced pass.
	setups int
	recipe recipe
	trace  bool
	spans  string // traced runs write spans here ("" = <workdir>/spans-<workload>.json)
	dir    string // server state and spans
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// tail is a human-readable line on the latency tail, not gated.
	tail string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed the request lists are derived from")
	seconds := fs.Int("seconds", 12, "measured request count, as about this many seconds of load on a 2-core host")
	trace := fs.String("trace", "0", `"0" measures end to end; "1" or a file name measures per layer and writes spans (default file <workdir>/spans-<workload>.json)`)
	workdir := fs.String("workdir", ".bench_build", "directory for server state and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
		return 2
	}
	o := &options{seed: *seed, seconds: *seconds, setups: 3, recipe: defaultRecipe, dir: *workdir}
	if *trace != "0" && *trace != "" {
		o.trace = true
		if *trace != "1" {
			o.spans = *trace
		}
	}
	list := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		list = []*workload{w}
	}

	// An interrupt cancels the run, which then shuts its servers down and
	// removes their state before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range list {
		res, err := runWorkload(ctx, w, o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printHuman(stdout, w.name, res)
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(list) > 1 {
				k = w.name + "/" + k
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				fmt.Fprintf(stderr, "bench: %s: metric %s is %v: the run measured nothing it applies to\n", w.name, k, v.Value)
				return 1
			}
			all.Metrics[k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !all.Correct {
		return 1
	}
	return 0
}

// pass is one replay of the measured requests against one instance.
type pass struct {
	outs     []outcome
	wall     time.Duration
	heapPeak float64 // MB
	problems []error // failed output checks
}

// runWorkload sets the service up o.setups times and measures on the last
// instance. A traced run sets up twice, measures untraced on the first
// instance and traced on the second, to report the tracing overhead.
func runWorkload(ctx context.Context, w *workload, o *options, stderr io.Writer) (result, error) {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	n := w.size(o.seconds)
	if o.requests > 0 {
		n = o.requests
	}
	p, err := w.generate(rand.New(rand.NewSource(o.seed)), n)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return result{}, err
	}
	setups := max(o.setups, 1)
	if o.trace {
		setups = 2
	}
	var setupS []float64
	var plain *pass
	var traced *tracedPass
	for i := range setups {
		last := i == setups-1
		dir, err := os.MkdirTemp(o.dir, "state-")
		if err != nil {
			return result{}, err
		}
		in, d, err := setUp(ctx, dir, w, &p, o, o.trace && last)
		if err != nil {
			os.RemoveAll(dir)
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
		switch {
		case o.trace && last:
			traced, err = measureTraced(ctx, in, w, &p, o)
		case last || (o.trace && i == setups-2):
			plain, err = measure(ctx, in, w, &p)
		}
		if cerr := in.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return result{}, err
		}
	}

	res := result{Attempted: len(plain.outs), Failed: failures(plain.outs)}
	problems := plain.problems
	if traced == nil {
		res.Metrics = endToEnd(plain, setupS)
		res.tail = tailLine(plain)
	} else {
		res.Metrics = traced.layers
		res.Metrics["trace_overhead_frac"] = metric{traced.wall.Seconds()/plain.wall.Seconds() - 1, "ratio"}
		res.Attempted += len(traced.outs)
		res.Failed += failures(traced.outs)
		problems = append(problems, traced.problems...)
	}
	for i, err := range problems {
		if i == 10 {
			fmt.Fprintf(stderr, "bench: %s: ... %d more failed checks\n", w.name, len(problems)-i)
			break
		}
		fmt.Fprintf(stderr, "bench: %s: check failed: %v\n", w.name, err)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	return res, nil
}

func failures(outs []outcome) int {
	n := 0
	for i := range outs {
		if outs[i].failure() != nil {
			n++
		}
	}
	return n
}

// warmUp runs the unmeasured slice and leaves a collected heap behind.
func warmUp(ctx context.Context, in *instance, w *workload, p *plan) error {
	outs, _ := drive(ctx, in, p.warmup, w.burst, false)
	for i := range outs {
		if err := outs[i].failure(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.GC()
	return nil
}

// measure runs the measured requests untraced and checks the answers.
func measure(ctx context.Context, in *instance, w *workload, p *plan) (*pass, error) {
	if err := warmUp(ctx, in, w, p); err != nil {
		return nil, err
	}
	stop := sampleHeap(100 * time.Millisecond)
	outs, wall := drive(ctx, in, p.measured, w.burst, false)
	ps := &pass{outs: outs, wall: wall, heapPeak: stop()}
	ps.problems = verify(in, outs)
	if w.probe {
		// Determinism probe: the first requests again, after everything
		// else has run, must reproduce their best EDP bit for bit.
		k := min(8, len(outs))
		again, _ := drive(ctx, in, p.measured[:k], w.burst, false)
		for i := range again {
			if err := again[i].failure(); err != nil {
				ps.problems = append(ps.problems, fmt.Errorf("determinism probe: %w", err))
			} else if outs[i].failure() == nil && again[i].job.Result.BestEDP != outs[i].job.Result.BestEDP {
				ps.problems = append(ps.problems, fmt.Errorf("determinism probe: request %d found best_edp %v, then %v",
					i, outs[i].job.Result.BestEDP, again[i].job.Result.BestEDP))
			}
		}
	}
	return ps, nil
}

// verify checks every answer: exactly one done state with a sane EDP and
// the full budget spent, and, for requests on a pre-solved shape, the
// stored entry served from the atlas.
func verify(in *instance, outs []outcome) []error {
	var problems []error
	for i := range outs {
		o := &outs[i]
		if err := o.check(); err != nil {
			problems = append(problems, err)
			continue
		}
		if want, ok := in.presolved[shapeKey(&o.req.Body)]; ok {
			if r := o.job.Result; r.Source != "atlas" || r.BestEDP != want {
				problems = append(problems, fmt.Errorf("job %s on a pre-solved shape: source %q best_edp %v, want \"atlas\" %v",
					o.job.ID, r.Source, r.BestEDP, want))
			}
		}
	}
	return problems
}

// tracedPass is the measured requests run with tracing on.
type tracedPass struct {
	pass
	layers map[string]metric
}

// measureTraced runs the measured requests with per-job traces fetched,
// reads the server's telemetry around them, replays a sample through the
// library's seams, and writes the spans.
func measureTraced(ctx context.Context, in *instance, w *workload, p *plan, o *options) (*tracedPass, error) {
	if err := warmUp(ctx, in, w, p); err != nil {
		return nil, err
	}
	before, err := in.scrape(ctx)
	if err != nil {
		return nil, err
	}
	in.http.reset()
	in.journalHooks.Store(0)
	in.atlasHooks.Store(0)
	t := &tracer{origin: time.Now()}
	outs, wall := drive(ctx, in, p.measured, w.burst, true)
	after, err := in.scrape(ctx)
	if err != nil {
		return nil, err
	}
	tp := &tracedPass{pass: pass{outs: outs, wall: wall}}
	tp.problems = verify(in, outs)
	unattributed := t.requestSpans(outs)
	items := replayItems(rand.New(rand.NewSource(o.seed^0x5eed)), outs)
	st, err := in.replay(ctx, t, outs, items, filepath.Join(in.dir, "replay"))
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	tp.problems = append(tp.problems, st.mismatches...)
	trains, err := in.trainTraces(ctx)
	if err != nil {
		return nil, err
	}
	tp.layers = perLayer(in, before, after, outs, st, unattributed, trains)
	path := o.spans
	if path == "" {
		path = filepath.Join(o.dir, "spans-"+w.name+".json")
	}
	return tp, t.write(path)
}

// latencies returns the latencies of the pass's done jobs in milliseconds.
func latencies(ps *pass) []float64 {
	var lat []float64
	for i := range ps.outs {
		if o := &ps.outs[i]; o.failure() == nil {
			lat = append(lat, ms(o.latency()))
		}
	}
	return lat
}

// tailLine reports the sample count and the highest latency percentile it
// supports, for information: the tail moves too much between runs to gate.
func tailLine(ps *pass) string {
	lat := latencies(ps)
	line := fmt.Sprintf("%d latency samples", len(lat))
	if p := highestSupported(len(lat)); p > 0 {
		line += fmt.Sprintf("; latency p%g %.4g ms (not gated)", p*100, percentile(lat, p))
	}
	return line
}

// endToEnd derives the end-to-end metrics of an untraced pass.
func endToEnd(ps *pass, setupS []float64) map[string]metric {
	lat := latencies(ps)
	var evals float64
	edp := map[string][]float64{}
	done := 0
	for i := range ps.outs {
		o := &ps.outs[i]
		if o.failure() != nil {
			continue
		}
		done++
		evals += float64(o.job.Result.Evals)
		s := o.req.Body.Searcher
		edp[s] = append(edp[s], o.job.Result.BestEDP)
		edp[""] = append(edp[""], o.job.Result.BestEDP)
	}
	wall := ps.wall.Seconds()
	m := map[string]metric{
		"setup_s":        {median(setupS), "s"},
		"jobs_per_s":     {float64(done) / wall, "1/s"},
		"latency_p50_ms": {percentile(lat, 0.5), "ms"},
		"latency_p90_ms": {percentile(lat, 0.9), "ms"},
		"evals_per_s":    {evals / wall, "1/s"},
		"edp_geomean":    {geomean(edp[""]), "ratio"},
		"heap_peak_mb":   {ps.heapPeak, "MB"},
	}
	for _, s := range []string{"mm", "ga", "sa"} {
		m["edp_geomean_"+s] = metric{geomean(edp[s]), "ratio"}
	}
	return m
}

// sampleHeap samples the live heap every period until the returned stop
// function is called, which returns the peak in MB.
func sampleHeap(every time.Duration) (stop func() float64) {
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		top := 0.0
		for {
			metrics.Read(s)
			top = math.Max(top, float64(s[0].Value.Uint64()))
			select {
			case <-done:
				peak <- top / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// printHuman prints one metric a line, sorted by name.
func printHuman(w io.Writer, workload string, r result) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: attempted %d, failed %d, correct %v\n", workload, r.Attempted, r.Failed, r.Correct)
	if r.tail != "" {
		fmt.Fprintf(w, "  %s\n", r.tail)
	}
	for _, k := range names {
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
}
