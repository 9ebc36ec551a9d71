package timeloop

import (
	"context"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/stats"
)

func allocFixture(t testing.TB) (*Model, *mapspace.Space, []mapspace.Mapping) {
	t.Helper()
	prob, err := loopnest.NewCNNProblem("alloc-test", 16, 256, 256, 14, 14, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Default(2)
	model, err := New(a, prob)
	if err != nil {
		t.Fatal(err)
	}
	space, err := mapspace.New(a, prob)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	var ms []mapspace.Mapping
	for i := 0; i < 16; i++ {
		ms = append(ms, space.Random(rng))
	}
	return model, space, ms
}

// TestEvaluateIntoMatchesEvaluate pins that the workspace-reusing path
// computes the exact same cost as the allocating path, across mappings
// evaluated back to back on one reused Cost (stale state must not leak).
func TestEvaluateIntoMatchesEvaluate(t *testing.T) {
	model, _, ms := allocFixture(t)
	ctx := context.Background()
	var ws costmodel.Cost
	for i := range ms {
		want, err := costmodel.Evaluate(nil, model, &ms[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := model.EvaluateInto(ctx, &ms[i], &ws); err != nil {
			t.Fatal(err)
		}
		if ws.EDP != want.EDP || ws.TotalEnergyPJ != want.TotalEnergyPJ ||
			ws.Cycles != want.Cycles || ws.Utilization != want.Utilization ||
			ws.MACEnergyPJ != want.MACEnergyPJ || ws.ComputeCycles != want.ComputeCycles {
			t.Fatalf("mapping %d: EvaluateInto disagrees with Evaluate:\n got %+v\nwant %+v", i, ws, want)
		}
		for l := range want.Accesses {
			for tt := range want.Accesses[l] {
				if ws.Accesses[l][tt] != want.Accesses[l][tt] || ws.EnergyPJ[l][tt] != want.EnergyPJ[l][tt] {
					t.Fatalf("mapping %d level %d tensor %d: accesses/energy mismatch", i, l, tt)
				}
			}
		}
	}
}

// TestEvaluateIntoZeroAllocs is the acceptance-criterion guard: once the
// Cost workspace is warm, evaluations allocate nothing.
func TestEvaluateIntoZeroAllocs(t *testing.T) {
	model, _, ms := allocFixture(t)
	ctx := context.Background()
	var ws costmodel.Cost
	if err := model.EvaluateInto(ctx, &ms[0], &ws); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := model.EvaluateInto(ctx, &ms[i%len(ms)], &ws); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state EvaluateInto allocates %.1f per run, want 0", allocs)
	}
}

// TestConcurrentEvaluate exercises the shared model from concurrent
// goroutines, each with its own Cost workspace (meaningful under -race):
// the model itself must be read-only during evaluation.
func TestConcurrentEvaluate(t *testing.T) {
	model, _, ms := allocFixture(t)
	ctx := context.Background()
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			var ws costmodel.Cost
			for i := 0; i < 25; i++ {
				if err := model.EvaluateInto(ctx, &ms[(g+i)%len(ms)], &ws); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkEvaluateAlloc(b *testing.B) {
	model, _, ms := allocFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := costmodel.Evaluate(nil, model, &ms[i%len(ms)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateInto(b *testing.B) {
	model, _, ms := allocFixture(b)
	ctx := context.Background()
	var ws costmodel.Cost
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := model.EvaluateInto(ctx, &ms[i%len(ms)], &ws); err != nil {
			b.Fatal(err)
		}
	}
}
