//go:build !simd

package search

import (
	"fmt"
	"testing"
)

// goldenMMDigests pins Mind Mappings runs the way goldenSearchDigests pins
// the black-box searchers: on the conv1d test problem and surrogate, whose
// GEMM kernels are bit-exact on the default build only (the simd build's
// are tolerance-based, hence the build tag).
var goldenMMDigests = map[int64]string{
	1: "a539c855e062d1f2",
	2: "c9651191f5536c38",
}

func TestGoldenMMResults(t *testing.T) {
	sur := conv1dSurrogate(t)
	for seed := int64(1); seed <= 2; seed++ {
		res, err := MindMappings{Surrogate: sur}.Search(conv1dContext(t, seed), Budget{MaxEvals: 1500})
		if err != nil {
			t.Fatal(err)
		}
		got := resultDigest(&res)
		want, ok := goldenMMDigests[seed]
		if !ok {
			t.Errorf("seed %d has no pinned digest; add\n\t%d: %q,", seed, seed, got)
			continue
		}
		if got != want {
			t.Errorf("seed %d digest %s, pinned %s", seed, got, want)
		}
	}
}

// goldenNNDigests pins the other two searchers whose arithmetic runs
// through the nn kernels, keyed "<searcher>/<seed>": RL (its actor and
// critic, narrowed to keep the race-detector run short) and SurrogateSA
// (the conv1d surrogate as its energy).
var goldenNNDigests = map[string]string{
	"RL/1":    "90a92ec16dba43dc",
	"RL/2":    "7d6dc6273930e079",
	"SA+f*/1": "873fcb0d540ed611",
	"SA+f*/2": "ba95471e8ad3f647",
}

func TestGoldenNNSearcherResults(t *testing.T) {
	for _, s := range []Searcher{RL{Hidden: 8}, SurrogateSA{Surrogate: conv1dSurrogate(t)}} {
		for seed := int64(1); seed <= 2; seed++ {
			res, err := s.Search(conv1dContext(t, seed), Budget{MaxEvals: 600})
			if err != nil {
				t.Fatal(err)
			}
			checkDigest(t, goldenNNDigests, fmt.Sprintf("%s/%d", s.Name(), seed), &res)
		}
	}
}
