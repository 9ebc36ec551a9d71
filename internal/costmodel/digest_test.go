package costmodel_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/stats"
)

// costDigests pins every Cost field of both built-in backends, and each
// evaluator's fingerprint bytes, bit for bit over digestProblems: a change
// that must not move a number (a refactor of either backend, a shared
// helper) leaves these untouched. A changed digest means a backend's
// output or identity changed.
var costDigests = map[string]string{
	"timeloop": "72f82ab5eb0f4c8b",
	"roofline": "694ebaf9d91dd776",
}

// digestEvalsPerProblem is how many mappings each problem contributes:
// alternately a fresh random draw and a perturbation of the last mapping.
const digestEvalsPerProblem = 2000

// digestProblems returns the eight Table-1 problems and three sampled
// problems for every registered workload.
func digestProblems(t *testing.T) []loopnest.Problem {
	t.Helper()
	probs, err := loopnest.Table1Problems()
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(66)
	for _, name := range loopnest.AlgorithmNames() {
		algo, err := loopnest.AlgorithmByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			probs = append(probs, algo.RandomProblem(rng))
		}
	}
	return probs
}

func TestCostDigests(t *testing.T) {
	probs := digestProblems(t)
	ctx := context.Background()
	for backend, want := range costDigests {
		h := sha256.New()
		evals := 0
		for pi, p := range probs {
			a := arch.Default(len(p.Algo.Tensors) - 1)
			ev, err := costmodel.New(backend, a, p)
			if err != nil {
				t.Fatalf("%v: %v", &p, err)
			}
			h.Write(ev.AppendFingerprint(nil))
			space, err := mapspace.New(a, p)
			if err != nil {
				t.Fatalf("%v: %v", &p, err)
			}
			rng := stats.NewRNG(int64(1000 + pi))
			var c costmodel.Cost
			var m, next mapspace.Mapping
			for i := 0; i < digestEvalsPerProblem; i++ {
				if i%2 == 0 {
					m = space.Random(rng)
				} else {
					space.PerturbInto(rng, &m, &next)
					m, next = next, m
				}
				if err := ev.EvaluateInto(ctx, &m, &c); err != nil {
					t.Fatalf("%s %v mapping %d: %v", backend, &p, i, err)
				}
				hashCost(h, &c)
				evals++
			}
		}
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want {
			t.Errorf("%s: digest over %d evaluations = %q, want %q", backend, evals, got, want)
		}
	}
}

// hashCost writes every field of c except the backend's scratch to h.
func hashCost(h hash.Hash, c *costmodel.Cost) {
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for l := range c.Accesses {
		for t := range c.Accesses[l] {
			put(c.Accesses[l][t])
			put(c.EnergyPJ[l][t])
		}
	}
	for _, v := range []float64{c.MACEnergyPJ, c.TotalEnergyPJ, c.ComputeCycles, c.Cycles, c.Utilization, c.EDP} {
		put(v)
	}
}
