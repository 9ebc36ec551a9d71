package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestWorkloadSweepSubset drives the workload-sweep study over a
// registry-only workload (gemm, which no hand-coded constructor ever
// covered) plus a classic, checking both methods produce sane normalized
// EDPs and the render carries the headline columns.
func TestWorkloadSweepSubset(t *testing.T) {
	h := fastHarness(t)
	var buf bytes.Buffer
	rows, err := h.WorkloadSweepFor(&buf, []string{"gemm", "conv1d"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	var parts []any
	for _, row := range rows {
		parts = append(parts, row.Workload, row.Problem, row.GAEDP, row.MMEDP, row.Ratio)
		if row.GAEDP < 1 || row.MMEDP < 1 {
			t.Fatalf("%s: EDPs below the algorithmic minimum: %+v", row.Workload, row)
		}
		if row.Ratio <= 0 {
			t.Fatalf("%s: ratio %v", row.Workload, row.Ratio)
		}
		if row.NumDims < 2 || row.NumTensors < 3 {
			t.Fatalf("%s: shape summary %+v", row.Workload, row)
		}
	}
	checkPin(t, pinDigest(parts...), "a22fd2733279b6fd")
	out := buf.String()
	for _, want := range []string{"workload sweep", "gemm", "conv1d", "GA/MM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestWorkloadSweepUnknownName(t *testing.T) {
	h := fastHarness(t)
	var buf bytes.Buffer
	if _, err := h.WorkloadSweepFor(&buf, []string{"no-such-workload"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
