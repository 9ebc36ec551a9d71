package search

import (
	"fmt"
	"testing"
)

// goldenMMDigests pins Mind Mappings runs the way goldenSearchDigests pins
// the black-box searchers, on the conv1d test problem and the surrogate
// trained in-test, so they also pin the training arithmetic and the nn
// kernels bit for bit.
var goldenMMDigests = map[int64]string{
	1: "6650187f37c16396",
	2: "de211342c091ee3f",
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
	"RL/1":    "3ce45213d82abb79",
	"RL/2":    "61cad1050fc402c2",
	"SA+f*/1": "91f08a13311754e9",
	"SA+f*/2": "3e44786d26845ddf",
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
