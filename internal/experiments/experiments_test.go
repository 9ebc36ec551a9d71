package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// The harness trains surrogates on first use; share one across tests.
var (
	harnessOnce sync.Once
	harnessFix  *Harness
)

func fastHarness(t testing.TB) *Harness {
	t.Helper()
	harnessOnce.Do(func() {
		opts := Defaults(true)
		opts.IsoIterations = 200
		opts.IsoTime = 250 * time.Millisecond
		opts.QueryLatency = 500 * time.Microsecond
		opts.SpaceSamples = 600
		harnessFix = New(opts)
	})
	return harnessFix
}

// pinDigest hashes the exact bit patterns of a driver's deterministic
// outputs, like resultDigest in internal/search: a pin moves when any
// search result behind a figure moves, whether or not the rendered text
// shows it. Callers pass no wall-clock field (StepTime, PerStep, iso-time
// curves), since those differ from run to run.
func pinDigest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		switch v := p.(type) {
		case float64:
			fmt.Fprintf(h, "%016x\n", math.Float64bits(v))
		case []float64:
			for _, x := range v {
				fmt.Fprintf(h, "%016x ", math.Float64bits(x))
			}
			fmt.Fprintln(h)
		case map[string]float64:
			for _, k := range slices.Sorted(maps.Keys(v)) {
				fmt.Fprintf(h, "%s=%016x ", k, math.Float64bits(v[k]))
			}
			fmt.Fprintln(h)
		case string, int, bool:
			fmt.Fprintf(h, "%v\n", v)
		default:
			panic(fmt.Sprintf("pinDigest: unsupported %T", p))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkPin fails the test when got differs from the pinned digest.
func checkPin(t *testing.T, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("search outputs digest %s, pinned %s", got, want)
	}
}

func TestDefaults(t *testing.T) {
	fast := Defaults(true)
	if !fast.Fast || fast.Repeats != 1 {
		t.Fatalf("fast defaults: %+v", fast)
	}
	full := Defaults(false)
	if full.Fast || full.IsoIterations != 1000 {
		t.Fatalf("full defaults: %+v", full)
	}
	if full.Repeats < 2 {
		t.Fatal("full defaults must average repeats")
	}
}

func TestProblemsSelection(t *testing.T) {
	h := fastHarness(t)
	probs, err := h.Problems()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 2 {
		t.Fatalf("fast problems = %d, want 2", len(probs))
	}
	full := New(Defaults(false))
	probsFull, err := full.Problems()
	if err != nil {
		t.Fatal(err)
	}
	if len(probsFull) != 8 {
		t.Fatalf("full problems = %d, want 8 (Table 1)", len(probsFull))
	}
}

func TestSurrogateCaching(t *testing.T) {
	h := fastHarness(t)
	a, err := h.Surrogate("cnn-layer")
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Surrogate("cnn-layer")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("surrogate not cached")
	}
	if _, err := h.Surrogate("nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestTable1Render(t *testing.T) {
	h := fastHarness(t)
	var buf bytes.Buffer
	if err := h.Table1(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ResNet_Conv_3", "MTTKRP_1", "AlexNet_Conv_2"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Table 1 output missing %s:\n%s", want, buf.String())
		}
	}
}

func TestCostSurface(t *testing.T) {
	h := fastHarness(t)
	var buf bytes.Buffer
	st, err := h.CostSurface(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Points < 20 {
		t.Fatalf("only %d surface points", st.Points)
	}
	if st.MaxEDP <= st.MinEDP {
		t.Fatal("flat cost surface — no mapping sensitivity")
	}
	// The paper's core premise: the surface is rugged. Adjacent tile-size
	// choices must change EDP substantially relative to the mean.
	if st.Ruggedness < 0.05 {
		t.Fatalf("ruggedness %v too low; surface unexpectedly smooth", st.Ruggedness)
	}
}

func TestSpaceStats(t *testing.T) {
	h := fastHarness(t)
	var buf bytes.Buffer
	chars, err := h.SpaceStats(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(chars) != 2 {
		t.Fatalf("%d algorithms characterized", len(chars))
	}
	for _, c := range chars {
		if c.EnergyMean <= 1 {
			t.Fatalf("%s mean normalized energy %v <= 1", c.Algo, c.EnergyMean)
		}
		if c.EnergyStd <= 0 {
			t.Fatalf("%s zero energy variance", c.Algo)
		}
		for name, lg := range c.SizeLog10 {
			if lg < 10 {
				t.Fatalf("%s map space exponent %v implausibly small", name, lg)
			}
		}
	}
}

func TestIsoIterationFast(t *testing.T) {
	h := fastHarness(t)
	cmp, err := h.RunIsoIteration()
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Problems) != 2 {
		t.Fatalf("%d problems", len(cmp.Problems))
	}
	for _, pc := range cmp.Problems {
		if len(pc.Series) != 5 {
			t.Fatalf("%s: %d methods, want 5", pc.Problem, len(pc.Series))
		}
		for _, s := range pc.Series {
			if s.FinalMean < 1 {
				t.Fatalf("%s/%s final EDP %v below lower bound", pc.Problem, s.Method, s.FinalMean)
			}
		}
		mm := pc.FinalFor("MM")
		rnd := pc.FinalFor("Random")
		if mm > rnd*2 {
			t.Errorf("%s: MM (%v) much worse than random (%v)", pc.Problem, mm, rnd)
		}
	}
	var buf bytes.Buffer
	cmp.Render(&buf)
	if !strings.Contains(buf.String(), "summary") {
		t.Fatal("render missing summary")
	}
	t.Logf("iso-iteration fast results:\n%s", buf.String())

	var parts []any
	for _, pc := range cmp.Problems {
		parts = append(parts, pc.Problem)
		for _, s := range pc.Series {
			parts = append(parts, s.Method, s.Checkpoints, s.Values, s.FinalMean, s.EvalsMean)
		}
	}
	parts = append(parts, cmp.RatiosVsMM, cmp.MMvsOracle)
	checkPin(t, pinDigest(parts...), "edba6d0cfc62d657")
}

func TestIsoTimeFast(t *testing.T) {
	h := fastHarness(t)
	cmp, err := h.RunIsoTime()
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range cmp.Problems {
		mm := pc.FinalFor("MM")
		if mm <= 0 {
			t.Fatalf("%s: no MM result", pc.Problem)
		}
	}
	var buf bytes.Buffer
	cmp.Render(&buf)
	t.Logf("iso-time fast results:\n%s", buf.String())
	// The mechanism behind Figure 6: MM performs many more steps per unit
	// time than latency-paying methods.
	for _, pc := range cmp.Problems {
		var mmEvals, saEvals float64
		for _, s := range pc.Series {
			switch s.Method {
			case "MM":
				mmEvals = s.EvalsMean
			case "SA":
				saEvals = s.EvalsMean
			}
		}
		if mmEvals < 2*saEvals {
			t.Errorf("%s: MM evals %v not clearly above SA evals %v under latency",
				pc.Problem, mmEvals, saEvals)
		}
	}
}

func TestPerStepCost(t *testing.T) {
	h := fastHarness(t)
	var buf bytes.Buffer
	costs, err := h.PerStepCost(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]StepCost{}
	for _, c := range costs {
		byName[c.Method] = c
	}
	if byName["SA"].RatioToMM < 2 {
		t.Errorf("SA per-step ratio %v; expected latency-dominated slowdown", byName["SA"].RatioToMM)
	}
	if byName["RL"].RatioToMM < byName["SA"].RatioToMM {
		t.Errorf("RL (%v) should be at least as slow per step as SA (%v)",
			byName["RL"].RatioToMM, byName["SA"].RatioToMM)
	}
	t.Logf("per-step costs:\n%s", buf.String())
}

func TestCostModelHeadToHead(t *testing.T) {
	h := fastHarness(t)
	var buf bytes.Buffer
	runs, err := h.CostModelHeadToHead(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) < 2 {
		t.Fatalf("expected runs for >= 2 backends, got %d", len(runs))
	}
	seen := map[string]bool{}
	for _, run := range runs {
		seen[run.SearchedWith] = true
		if run.Evals != h.opts.IsoIterations {
			t.Fatalf("%s run used %d evals", run.SearchedWith, run.Evals)
		}
		if len(run.ScoredBy) != len(runs) {
			t.Fatalf("%s winner scored by %d backends, want %d", run.SearchedWith, len(run.ScoredBy), len(runs))
		}
		// Self-score and the search's own best agree up to float
		// association (the tracker normalizes e*d, the scorer EDP/MinEDP).
		if got := run.ScoredBy[run.SearchedWith]; math.Abs(got-run.NativeEDP) > 1e-9*run.NativeEDP {
			t.Fatalf("%s self-score %v != native %v", run.SearchedWith, got, run.NativeEDP)
		}
		for scorer, edp := range run.ScoredBy {
			if edp < 1-1e-9 {
				t.Fatalf("%s scored %s's winner below the lower bound: %v", scorer, run.SearchedWith, edp)
			}
		}
	}
	var parts []any
	for _, run := range runs {
		parts = append(parts, run.SearchedWith, run.Evals, run.NativeEDP, run.ScoredBy)
	}
	checkPin(t, pinDigest(parts...), "a2380160671af097")
	if !seen["timeloop"] || !seen["roofline"] {
		t.Fatalf("missing a built-in backend: %v", seen)
	}
	for _, want := range []string{"head-to-head", "timeloop", "roofline"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("rendering missing %q:\n%s", want, buf.String())
		}
	}
}

func TestDatasetSize(t *testing.T) {
	h := fastHarness(t)
	var buf bytes.Buffer
	rows, err := h.DatasetSize(&buf, "cnn-layer")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	var parts []any
	for i, r := range rows {
		if i > 0 && r.Samples <= rows[i-1].Samples {
			t.Fatalf("sample counts not increasing: %+v", rows)
		}
		if r.SearchEDP < 1 {
			t.Fatalf("%d samples: search EDP %v below bound", r.Samples, r.SearchEDP)
		}
		parts = append(parts, r.Samples, r.Corr, r.SearchEDP)
	}
	checkPin(t, pinDigest(parts...), "b85976edc883dfc5")
	if !strings.Contains(buf.String(), "Figure 7c") {
		t.Fatalf("render missing the figure title:\n%s", buf.String())
	}
}
