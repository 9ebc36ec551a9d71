//go:build !simd

package search

import "testing"

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
