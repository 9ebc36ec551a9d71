package search

import "testing"

// raceEnabled is set by race_test.go: the race detector makes sync.Pool
// drop a quarter of its items, so the map-space workspace re-allocates and
// the allocation pins below do not hold under -race.
var raceEnabled bool

// marginalAllocs returns the allocations a search makes for the evals
// between a short and a long run of the BenchmarkSearchGA workload: the
// steady-state cost, without the setup and initial population both runs
// pay.
func marginalAllocs(t *testing.T, s Searcher, short, long int) float64 {
	t.Helper()
	return marginalAllocsOn(t, s, func() *Context { return benchSearchContext(t, 1) }, short, long)
}

// marginalAllocsOn is marginalAllocs on the context mk builds.
func marginalAllocsOn(t *testing.T, s Searcher, mk func() *Context, short, long int) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	run := func(evals int) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, err := s.Search(mk(), Budget{MaxEvals: evals}); err != nil {
				t.Fatal(err)
			}
		})
	}
	return run(long) - run(short)
}

// A GA generation breeds its 100 children into the storage of the
// generation before last; only new best-so-far clones and trajectory
// growth allocate. A per-child allocation would cost at least 100 a
// generation.
func TestGAAllocsPerGeneration(t *testing.T) {
	const short, long = 2000, 8000
	perGen := marginalAllocs(t, GeneticAlgorithm{}, short, long) / ((long - short) / gaPopSize)
	if perGen > 10 {
		t.Fatalf("GA allocates %.1f per generation, want at most 10", perGen)
	}
}

// SA's Metropolis loop perturbs into the storage of the last rejected
// neighbor.
func TestSAAllocsPerMove(t *testing.T) {
	const short, long = 2000, 8000
	perMove := marginalAllocs(t, SimulatedAnnealing{}, short, long) / (long - short)
	if perMove > 0.1 {
		t.Fatalf("SA allocates %.2f per move, want at most 0.1", perMove)
	}
}

// Beam recycles the storage of entries that fall out of the beam.
func TestBeamAllocsPerChild(t *testing.T) {
	const short, long = 2000, 8000
	perChild := marginalAllocs(t, BeamSearch{}, short, long) / (long - short)
	if perChild > 0.1 {
		t.Fatalf("beam allocates %.2f per child, want at most 0.1", perChild)
	}
}

// SA+f* runs SA's loop: its energy encodes each neighbor into one reused
// row and predicts into one reused buffer.
func TestSurrogateSAAllocsPerMove(t *testing.T) {
	const short, long = 2000, 8000
	s := SurrogateSA{Surrogate: conv1dSurrogate(t)}
	perMove := marginalAllocsOn(t, s, func() *Context { return conv1dContext(t, 1) }, short, long) / (long - short)
	if perMove > 0.1 {
		t.Fatalf("SA+f* allocates %.2f per move, want at most 0.1", perMove)
	}
}

// Random search draws every candidate into one reused mapping; only new
// best-so-far clones and trajectory growth allocate.
func TestRandomAllocsPerEval(t *testing.T) {
	const short, long = 2000, 8000
	perEval := marginalAllocs(t, RandomSearch{}, short, long) / (long - short)
	if perEval > 0.1 {
		t.Fatalf("random search allocates %.2f per eval, want at most 0.1", perEval)
	}
}
