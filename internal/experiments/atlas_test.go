package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestAtlasSweepSubset drives the warm-start study over one workload and
// checks the row invariants: donor and target really are distinct nearby
// shapes, the cold run reached its own best, and the render carries the
// headline columns. Whether the warm start wins is a measurement, not a
// unit-test invariant — the acceptance run records it in BENCH_search.json.
func TestAtlasSweepSubset(t *testing.T) {
	h := fastHarness(t)
	var buf bytes.Buffer
	rows, err := h.AtlasSweepFor(&buf, []string{"conv1d"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	row := rows[0]
	if row.Donor == row.Target {
		t.Fatalf("donor and target are the same instance: %+v", row)
	}
	if row.Distance <= 0 || math.IsInf(row.Distance, 0) {
		t.Fatalf("neighbor distance %v", row.Distance)
	}
	if row.ColdBest < 1 || row.ColdEvals < 1 {
		t.Fatalf("cold run never reached its own best: %+v", row)
	}
	if row.WarmBest < 1 {
		t.Fatalf("warm best %v below the algorithmic minimum", row.WarmBest)
	}
	if row.Matched != (row.WarmEvals > 0) {
		t.Fatalf("matched flag inconsistent: %+v", row)
	}
	checkPin(t, pinDigest(row.Donor, row.Target, row.Distance, row.ColdBest, row.ColdEvals,
		row.WarmEvals, row.WarmBest, row.Matched, row.Ratio), "347b699bd0316571")
	out := buf.String()
	for _, want := range []string{"atlas warm start", "conv1d", "cold best", "warm@"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestNeighborProblemPerturbsOneDim(t *testing.T) {
	for _, name := range []string{"conv1d", "cnn-layer", "mttkrp"} {
		mid, err := representativeProblem(name)
		if err != nil {
			t.Fatal(err)
		}
		near, err := neighborProblem(mid)
		if err != nil {
			t.Fatal(err)
		}
		diff := 0
		for d := range mid.Shape {
			if mid.Shape[d] != near.Shape[d] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("%s: neighbor differs in %d dims (mid %v, near %v), want exactly 1",
				name, diff, mid.Shape, near.Shape)
		}
	}
}
