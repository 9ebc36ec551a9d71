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
// best EDP, best mapping, and the whole best-so-far trajectory — at fixed
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
	"ResNet_Conv_4/GA":        "a63d0faa86b952bf",
	"ResNet_Conv_4/SA":        "916c06180b2916dc",
	"ResNet_Conv_4/Beam":      "279ce02cdd3e3f3b",
	"ResNet_Conv_4/Random":    "55047cfe464014c4",
	"Inception_Conv_2/GA":     "f8a784bd1f68b833",
	"Inception_Conv_2/SA":     "c9c27cbb6f1533cc",
	"Inception_Conv_2/Beam":   "8dd0d28a8aa18302",
	"Inception_Conv_2/Random": "e5bb47a11a40c5df",
	"MTTKRP_0/GA":             "df1587570657fad2",
	"MTTKRP_0/SA":             "0cfd9b9afe7a0259",
	"MTTKRP_0/Beam":           "68ef9efbd3e15acd",
	"MTTKRP_0/Random":         "47cf4adb5d76d60d",
}

const goldenSearchEvals = 2000

func goldenSearchers() []Searcher {
	return []Searcher{GeneticAlgorithm{}, SimulatedAnnealing{}, BeamSearch{}, RandomSearch{}}
}

// resultDigest hashes everything deterministic in a Result: the best EDP's
// bits, the best mapping (rendering plus exact allocation bits), the eval
// count, and every trajectory sample's eval index and best-EDP bits.
// Wall-clock fields are left out.
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
	for _, s := range res.Trajectory {
		fmt.Fprintf(h, "%d:%016x\n", s.Eval, math.Float64bits(s.BestEDP))
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
	"ResNet_Conv_4":    "8ef9956df6bad332",
	"Inception_Conv_2": "9b626eee19a9ccc7",
	"MTTKRP_0":         "627e402ceccf6d56",
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
