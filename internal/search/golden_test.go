package search

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/oracle"
)

// The search-level golden test pins what the black-box searchers return —
// best EDP, best mapping, and the best-so-far frontier — at fixed
// seeds and budgets on three Table-1 problems, so work on the searchers'
// buffers, sorting and operators is provably bit-identical end to end.
// The map-space golden test (internal/mapspace) pins the operators on
// their own; this one pins how the searchers drive them.
//
// A changed digest means a searcher's observable behavior changed. Mind
// Mappings, RL and SA+f* are pinned in golden_mm_test.go instead, beside
// the surrogate they share.

// goldenSearchProblems are the Table-1 problems the digests cover: a
// ResNet convolution, an Inception convolution, and an MTTKRP.
var goldenSearchProblems = []string{"ResNet_Conv_4", "Inception_Conv_2", "MTTKRP_0"}

// goldenSearchDigests maps "<problem>/<searcher>" to the truncated sha256
// of the run's Result.
var goldenSearchDigests = map[string]string{
	"ResNet_Conv_4/GA":        "4c122ffc197407db",
	"ResNet_Conv_4/SA":        "d46ff65d8837623c",
	"ResNet_Conv_4/Beam":      "f477d64e9d44bccf",
	"ResNet_Conv_4/Random":    "6878c78c9a05b5cb",
	"Inception_Conv_2/GA":     "63d4b4317d82d539",
	"Inception_Conv_2/SA":     "2a05fa504e7f9182",
	"Inception_Conv_2/Beam":   "f273a3c03f847941",
	"Inception_Conv_2/Random": "1830d4dccb9d5191",
	"MTTKRP_0/GA":             "0f6065c530fb9621",
	"MTTKRP_0/SA":             "8739da62af9bf186",
	"MTTKRP_0/Beam":           "0fc403a16faf06e6",
	"MTTKRP_0/Random":         "d88829786ad0e50b",
}

const goldenSearchEvals = 2000

func goldenSearchers() []Searcher {
	return []Searcher{GeneticAlgorithm{}, SimulatedAnnealing{}, BeamSearch{}, RandomSearch{}}
}

// resultDigest hashes everything deterministic in a Result: the best EDP's
// bits, the best mapping (rendering plus exact allocation bits), the eval
// count, and the best-so-far frontier — the eval index and best-EDP bits
// of every sample that lowered the best. The frontier and the eval count
// determine the whole per-eval best-so-far curve, so samples that only
// repeat the best add nothing. Wall-clock fields are left out.
func resultDigest(res *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s evals=%d best=%016x\n", res.Method, res.Evals, math.Float64bits(res.BestEDP))
	fmt.Fprintln(h, res.Best.String())
	for _, level := range res.Best.Alloc {
		for _, a := range level {
			fmt.Fprintf(h, "%016x ", math.Float64bits(a))
		}
	}
	fmt.Fprintln(h)
	best := math.Inf(1)
	for _, s := range res.Trajectory {
		if s.BestEDP < best {
			best = s.BestEDP
			fmt.Fprintf(h, "%d:%016x\n", s.Eval, math.Float64bits(s.BestEDP))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func goldenSearchContext(t *testing.T, p loopnest.Problem, seed int64) *Context {
	t.Helper()
	a := arch.Default(len(p.Algo.Tensors) - 1)
	space, err := mapspace.New(a, p)
	if err != nil {
		t.Fatal(err)
	}
	model, err := costmodel.New("timeloop", a, p)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := oracle.Compute(a, p)
	if err != nil {
		t.Fatal(err)
	}
	return &Context{Space: space, Model: model, Bound: bound, Seed: seed}
}

func TestGoldenSearchResults(t *testing.T) {
	table1, err := loopnest.Table1Problems()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]loopnest.Problem{}
	for _, p := range table1 {
		byName[p.Name] = p
	}
	seen := map[string]bool{}
	for i, name := range goldenSearchProblems {
		p, ok := byName[name]
		if !ok {
			t.Fatalf("Table-1 problem %s not found", name)
		}
		for _, s := range goldenSearchers() {
			key := name + "/" + s.Name()
			seen[key] = true
			res, err := s.Search(goldenSearchContext(t, p, int64(11+i)), Budget{MaxEvals: goldenSearchEvals})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := resultDigest(&res)
			want, ok := goldenSearchDigests[key]
			if !ok {
				t.Errorf("%s has no pinned digest; add\n\t%q: %q,", key, key, got)
				continue
			}
			if got != want {
				t.Errorf("%s digest %s, pinned %s", key, got, want)
			}
		}
	}
	for key := range goldenSearchDigests {
		if !seen[key] {
			t.Errorf("pinned run %s is no longer generated", key)
		}
	}
}

// goldenExhaustiveDigests pins PrunedExhaustive the same way, on the same
// problems and seeds: its loop-order sample (seven-dimension convolutions
// sample 24 of the 5040 orders) and its enumeration order.
var goldenExhaustiveDigests = map[string]string{
	"ResNet_Conv_4":    "56703bfaafd96027",
	"Inception_Conv_2": "6c82acbdee816ffc",
	"MTTKRP_0":         "9e7340de69dfa651",
}

func TestGoldenExhaustiveResults(t *testing.T) {
	table1, err := loopnest.Table1Problems()
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range goldenSearchProblems {
		j := slices.IndexFunc(table1, func(p loopnest.Problem) bool { return p.Name == name })
		if j < 0 {
			t.Fatalf("Table-1 problem %s not found", name)
		}
		res, err := PrunedExhaustive{}.Search(goldenSearchContext(t, table1[j], int64(11+i)), Budget{MaxEvals: goldenSearchEvals})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkDigest(t, goldenExhaustiveDigests, name, &res)
	}
}

// checkDigest compares a run's digest with the one pinned under key.
func checkDigest(t *testing.T, pinned map[string]string, key string, res *Result) {
	t.Helper()
	got := resultDigest(res)
	want, ok := pinned[key]
	if !ok {
		t.Errorf("%s has no pinned digest; add\n\t%q: %q,", key, key, got)
		return
	}
	if got != want {
		t.Errorf("%s digest %s, pinned %s", key, got, want)
	}
}
