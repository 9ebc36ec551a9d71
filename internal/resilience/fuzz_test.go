package resilience

import (
	"math"
	"testing"
)

// FuzzParseFaults checks that ParseFaults never panics and that a spec it
// accepts arms only what can fire: each armed site has a name, every rate
// lies in [0, 1], and a site with a latency rate has a spike to report.
func FuzzParseFaults(f *testing.F) {
	for _, spec := range []string{
		"seed=7,eval=0.02",                    // the CI chaos smoke
		"seed=7,eval=0.02,journal.write=0.05", // the README
		"seed=7,eval=0.01,eval.lat=0.05:25ms,journal.write=0.05,store.publish=0.1",
		"seed=7, eval=1, eval.lat=1:5ms, journal.write=0",
		"eval=NaN", "eval.lat=NaN:5ms", "eval.lat=0.5:-10ms", "=0.5", ".lat=1:5ms",
		"eval=2", "eval.lat=-1:1s", "",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		inj, err := ParseFaults(spec)
		if err != nil || inj == nil {
			return
		}
		rateOK := func(p float64) bool { return !math.IsNaN(p) && p >= 0 && p <= 1 }
		for name, s := range inj.site {
			if name == "" || !rateOK(s.errRate) || !rateOK(s.latRate) || (s.latRate > 0 && s.latency <= 0) {
				t.Fatalf("ParseFaults(%q) arms site %q with %+v", spec, name, *s)
			}
		}
	})
}
