package surrogate

import (
	"strings"
	"sync"
	"testing"
)

// Edge cases of the batched inference contract: empty batches, ragged
// inputs, destination-reuse corner cases, chunk-boundary sizes, and
// concurrent callers mixing batch sizes. These guard the service, whose
// concurrent jobs share one registry surrogate and query these two entry
// points with batches of any size.

// TestBatchEmptyInputs pins the empty-batch fast path: no error, length-0
// results, and a caller's dst contents beyond the result are untouched.
func TestBatchEmptyInputs(t *testing.T) {
	sur, _ := batchFixture(t)
	for _, vecs := range [][][]float64{nil, {}} {
		vals, err := sur.PredictBatch(vecs, 1, 1, nil)
		if err != nil || len(vals) != 0 {
			t.Fatalf("PredictBatch(%v): vals=%v err=%v", vecs, vals, err)
		}
		vals, grads, err := sur.GradientBatch(vecs, 1, 1, nil, nil)
		if err != nil || len(vals) != 0 || len(grads) != 0 {
			t.Fatalf("GradientBatch(%v): vals=%v grads=%v err=%v", vecs, vals, grads, err)
		}
	}
	dst := []float64{7, 8, 9}
	got, err := sur.PredictBatch(nil, 1, 1, dst)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch with dst: got=%v err=%v", got, err)
	}
	if dst[0] != 7 || dst[1] != 8 || dst[2] != 9 {
		t.Fatalf("empty batch scribbled on dst: %v", dst)
	}
}

// TestBatchRaggedRejectedUpFront checks that a ragged batch — one row of
// the wrong width anywhere, including past the internal chunk boundary —
// fails as a whole before any output is written, naming the bad row.
func TestBatchRaggedRejectedUpFront(t *testing.T) {
	sur, vecs := batchFixture(t)
	in := sur.Net.InDim()
	for _, bad := range []int{0, 1, len(vecs) - 1} {
		ragged := make([][]float64, len(vecs))
		copy(ragged, vecs)
		switch bad % 3 {
		case 0:
			ragged[bad] = nil
		case 1:
			ragged[bad] = vecs[bad][:in-1]
		default:
			ragged[bad] = append(append([]float64(nil), vecs[bad]...), 0)
		}
		sentinel := make([]float64, len(vecs))
		for i := range sentinel {
			sentinel[i] = -12345
		}
		if _, err := sur.PredictBatch(ragged, 1, 1, sentinel); err == nil {
			t.Fatalf("ragged row %d accepted by PredictBatch", bad)
		} else if !strings.Contains(err.Error(), "batch input") {
			t.Fatalf("ragged row %d: unhelpful error %v", bad, err)
		}
		for i, v := range sentinel {
			if v != -12345 {
				t.Fatalf("ragged row %d: PredictBatch wrote dst[%d]=%v before failing", bad, i, v)
			}
		}
		if _, _, err := sur.GradientBatch(ragged, 1, 1, nil, nil); err == nil {
			t.Fatalf("ragged row %d accepted by GradientBatch", bad)
		}
	}
}

// TestGradientBatchGradsReuseMixed pins grads-buffer semantics when the
// caller's rows are a mix of correctly sized, nil, and wrongly sized:
// correct rows are written in place, the rest are replaced with fresh
// rows of the right width, and the outer slice is reused when it fits.
func TestGradientBatchGradsReuseMixed(t *testing.T) {
	sur, vecs := batchFixture(t)
	in := sur.Net.InDim()
	n := 4
	grads := make([][]float64, n, n+2)
	grads[0] = make([]float64, in)   // right size: reused
	grads[1] = nil                   // missing: allocated
	grads[2] = make([]float64, in-3) // too short: replaced
	grads[3] = make([]float64, in+5) // too long: replaced
	keep0 := &grads[0][0]
	_, got, err := sur.GradientBatch(vecs[:n], 1, 1, nil, grads)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &grads[0] {
		t.Fatal("outer grads slice with capacity was not reused")
	}
	if &got[0][0] != keep0 {
		t.Fatal("correctly sized grads row was not written in place")
	}
	for i, g := range got {
		if len(g) != in {
			t.Fatalf("grads[%d] has length %d, want %d", i, len(g), in)
		}
	}
	// The replaced rows must hold the same gradient a clean call computes.
	_, ref, err := sur.GradientBatch(vecs[:n], 1, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		for j := range ref[i] {
			if got[i][j] != ref[i][j] {
				t.Fatalf("grads[%d][%d]=%v, want %v", i, j, got[i][j], ref[i][j])
			}
		}
	}
}

// TestBatchChunkBoundarySizes runs batch sizes straddling the internal
// maxBatchRows chunking (31, 32, 33, 64, 69) and checks agreement with
// the scalar path on every row (bit-identity on the default build,
// tolerance under -tags simd) — the chunk seams must be invisible.
func TestBatchChunkBoundarySizes(t *testing.T) {
	sur, base := batchFixture(t)
	// Extend the fixture set by cycling so sizes beyond len(base) work.
	vecs := make([][]float64, 0, 69)
	for len(vecs) < 69 {
		vecs = append(vecs, base[len(vecs)%len(base)])
	}
	for _, n := range []int{1, maxBatchRows - 1, maxBatchRows, maxBatchRows + 1, 2 * maxBatchRows, 69} {
		vals, err := sur.PredictBatch(vecs[:n], 1, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		gvals, grads, err := sur.GradientBatch(vecs[:n], 1, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			want, err := sur.PredictScalar(vecs[i], 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !batchEq(vals[i], want) || !batchEq(gvals[i], want) {
				t.Fatalf("n=%d row %d: batch=%v gradbatch=%v scalar=%v", n, i, vals[i], gvals[i], want)
			}
			wantV, wantG, err := sur.GradientScalar(vecs[i], 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !batchEq(gvals[i], wantV) {
				t.Fatalf("n=%d row %d: gradient value %v, scalar %v", n, i, gvals[i], wantV)
			}
			for j := range wantG {
				if !batchEq(grads[i][j], wantG[j]) {
					t.Fatalf("n=%d row %d grad[%d]: %v vs %v", n, i, j, grads[i][j], wantG[j])
				}
			}
		}
	}
}

// TestBatchConcurrentMixedSizes hammers the scratch pool from goroutines
// whose batch sizes differ (1 row up to 2x the chunk size, straddling the
// pool's grow-on-demand path) — run with -race; every result must match
// the serial reference.
func TestBatchConcurrentMixedSizes(t *testing.T) {
	sur, base := batchFixture(t)
	vecs := make([][]float64, 0, 64)
	for len(vecs) < 64 {
		vecs = append(vecs, base[len(vecs)%len(base)])
	}
	ref, err := sur.PredictBatch(vecs, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	refG := make([][]float64, len(vecs))
	if _, refG, err = sur.GradientBatch(vecs, 1, 1, nil, refG); err != nil {
		t.Fatal(err)
	}
	sizes := []int{1, 3, maxBatchRows, maxBatchRows + 1, 64}
	var wg sync.WaitGroup
	for g := 0; g < 2*len(sizes); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := sizes[g%len(sizes)]
			for iter := 0; iter < 6; iter++ {
				if g%2 == 0 {
					vals, err := sur.PredictBatch(vecs[:n], 1, 1, nil)
					if err != nil {
						t.Error(err)
						return
					}
					for i := range vals {
						if vals[i] != ref[i] {
							t.Errorf("size %d: vals[%d]=%v, want %v", n, i, vals[i], ref[i])
							return
						}
					}
				} else {
					_, grads, err := sur.GradientBatch(vecs[:n], 1, 1, nil, nil)
					if err != nil {
						t.Error(err)
						return
					}
					for i := range grads {
						for j := range grads[i] {
							if grads[i][j] != refG[i][j] {
								t.Errorf("size %d: grads[%d][%d] diverged", n, i, j)
								return
							}
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
