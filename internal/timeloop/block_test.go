package timeloop

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/stats"
	"mindmappings/internal/workload"
)

// raceEnabled is set by race_test.go: the race detector makes sync.Pool
// drop items, so the map space's pooled workspace re-allocates and the
// allocation pins below do not hold under -race.
var raceEnabled bool

// wideFixture is a 17-dimension inline einsum, one more dimension than
// the map space keeps on the stack.
func wideFixture(t testing.TB) (*Model, *mapspace.Space) {
	t.Helper()
	algo, err := workload.CompileInline(
		"O[a,b,c,d,e,f,g,h,i] += A[a,b,c,d,e,f,g,h+j,k,l,m] * B[i,j,k,l,m,n,o,p,q]")
	if err != nil {
		t.Fatal(err)
	}
	shape := make([]int, algo.NumDims())
	for d := range shape {
		shape[d] = 2
	}
	p := loopnest.Problem{Algo: algo, Name: "wide", Shape: shape}
	a := arch.Default(len(algo.Tensors) - 1)
	model, err := New(a, p)
	if err != nil {
		t.Fatal(err)
	}
	space, err := mapspace.New(a, p)
	if err != nil {
		t.Fatal(err)
	}
	return model, space
}

// bare returns a copy of m that shares its tiling but has no footprint
// block, so the model computes the footprints itself.
func bare(m *mapspace.Mapping) mapspace.Mapping {
	out := *m
	for l := range out.Alloc {
		out.Alloc[l] = append([]float64(nil), m.Alloc[l]...)
	}
	return out
}

// sameCost reports whether two costs agree bit for bit.
func sameCost(a, b *costmodel.Cost) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.EDP, b.EDP) || !same(a.TotalEnergyPJ, b.TotalEnergyPJ) || !same(a.Cycles, b.Cycles) {
		return false
	}
	for l := range a.Accesses {
		for t := range a.Accesses[l] {
			if !same(a.Accesses[l][t], b.Accesses[l][t]) || !same(a.EnergyPJ[l][t], b.EnergyPJ[l][t]) {
				return false
			}
		}
	}
	return true
}

// The operators leave their result's footprints in its block and
// EvaluateInto reads them: the whole operator → evaluation step allocates
// nothing, and costs exactly what the same mapping without a block costs.
func TestOperatorEvaluateIntoAllocs(t *testing.T) {
	model, space, _ := allocFixture(t)
	wideModel, wideSpace := wideFixture(t)
	ctx := context.Background()
	for _, fx := range []struct {
		model *Model
		space *mapspace.Space
	}{{model, space}, {wideModel, wideSpace}} {
		rng := stats.NewRNG(5)
		a, b := fx.space.Random(rng), fx.space.Random(rng)
		dst := a.Clone()
		var c, want costmodel.Cost
		for _, op := range []struct {
			name string
			run  func()
		}{
			{"PerturbInto", func() { fx.space.PerturbInto(rng, &a, &dst) }},
			{"CrossoverInto", func() { fx.space.CrossoverInto(rng, &a, &b, &dst) }},
			{"MutateInto in place", func() { fx.space.MutateInto(rng, &dst, 0.3, &dst) }},
		} {
			step := func() {
				op.run()
				if err := fx.model.EvaluateInto(ctx, &dst, &c); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 50; i++ {
				step()
				plain := bare(&dst)
				if err := fx.model.EvaluateInto(ctx, &plain, &want); err != nil {
					t.Fatal(err)
				}
				if !sameCost(&c, &want) {
					t.Fatalf("%s: cost read off the block %+v, computed %+v", op.name, c, want)
				}
			}
			if raceEnabled {
				continue
			}
			if got := testing.AllocsPerRun(200, step); got != 0 {
				t.Fatalf("%s then EvaluateInto: %v allocs per step, want 0", op.name, got)
			}
		}
	}
}

// IsMember and EvaluateInto only read a mapping, its footprint block
// included: any number of goroutines may check and evaluate one shared
// mapping at once (meaningful under -race).
func TestConcurrentIsMemberAndEvaluate(t *testing.T) {
	model, space, ms := allocFixture(t)
	ctx := context.Background()
	shared := &ms[0]
	want, err := costmodel.Evaluate(nil, model, shared)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var c costmodel.Cost
			for i := 0; i < 200; i++ {
				if g%2 == 0 {
					if err := space.IsMember(shared); err != nil {
						errs <- err
						return
					}
					continue
				}
				if err := model.EvaluateInto(ctx, shared, &c); err != nil {
					errs <- err
					return
				}
				if !sameCost(&c, &want) {
					errs <- errors.New("a concurrent evaluation of a shared mapping changed its cost")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
