package costmodel_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/stats"

	_ "mindmappings/internal/timeloop" // register the reference backend
)

// fixture bundles one (arch, problem) pair with its map space and a pool
// of random mappings.
type fixture struct {
	arch  arch.Spec
	prob  loopnest.Problem
	space *mapspace.Space
	ms    []mapspace.Mapping
}

func newFixture(t testing.TB, seed int64) *fixture {
	t.Helper()
	p, err := loopnest.NewCNNProblem("costmodel-test", 4, 16, 8, 14, 14, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Default(2)
	space, err := mapspace.New(a, p)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{arch: a, prob: p, space: space}
	rng := stats.NewRNG(seed)
	for i := 0; i < 24; i++ {
		f.ms = append(f.ms, space.Random(rng))
	}
	return f
}

func (f *fixture) backend(t testing.TB, name string) costmodel.Evaluator {
	t.Helper()
	ev, err := costmodel.New(name, f.arch, f.prob)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestRegistryResolvesBackends(t *testing.T) {
	f := newFixture(t, 1)
	for _, tc := range []struct{ name, want string }{
		{"", "timeloop"}, // default
		{"timeloop", "timeloop"},
		{"roofline", "roofline"},
	} {
		ev := f.backend(t, tc.name)
		if ev.Name() != tc.want {
			t.Fatalf("New(%q).Name() = %q, want %q", tc.name, ev.Name(), tc.want)
		}
		if ev.Problem().Name != f.prob.Name {
			t.Fatalf("backend %q bound to problem %q", tc.want, ev.Problem().Name)
		}
	}
	if _, err := costmodel.New("no-such-backend", f.arch, f.prob); err == nil ||
		!strings.Contains(err.Error(), "roofline") {
		t.Fatalf("unknown backend error should list registered names, got %v", err)
	}
	names := costmodel.Names()
	for _, want := range []string{"timeloop", "roofline"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Fatalf("Names() = %v, missing %q", names, want)
		}
		if !costmodel.Registered(want) {
			t.Fatalf("Registered(%q) = false", want)
		}
	}
	if !costmodel.Registered("") {
		t.Fatal("empty name must resolve to the default backend")
	}
	if costmodel.Registered("no-such-backend") {
		t.Fatal("Registered accepted an unknown backend")
	}
}

func TestRegisterRejectsDuplicatesAndEmpty(t *testing.T) {
	mustPanic := func(name string, c costmodel.Constructor) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("Register(%q) did not panic", name)
			}
		}()
		costmodel.Register(name, c)
	}
	dummy := func(a arch.Spec, p loopnest.Problem) (costmodel.Evaluator, error) {
		return costmodel.NewRoofline(a, p)
	}
	mustPanic("", dummy)
	mustPanic("timeloop", dummy) // duplicate of the reference backend
	mustPanic("x", nil)
}

// keyRecorder is a Cache that records every lookup key and answers each
// with a hit, so a WithCache stack yields its key for any mapping without
// evaluating it.
type keyRecorder struct{ keys []string }

func (r *keyRecorder) Get(key string) (costmodel.Cost, bool) {
	r.keys = append(r.keys, key)
	return costmodel.Cost{}, true
}

func (r *keyRecorder) Put(string, costmodel.Cost) {}

// cacheKey returns the key a fresh WithCache stack over ev gives m.
func cacheKey(t *testing.T, ev costmodel.Evaluator, m *mapspace.Mapping) string {
	t.Helper()
	rec := &keyRecorder{}
	var c costmodel.Cost
	if err := costmodel.WithCache(ev, rec).EvaluateInto(context.Background(), m, &c); err != nil {
		t.Fatal(err)
	}
	return rec.keys[0]
}

// TestFingerprintsDistinguishEvaluators pins the cache-key contract: any
// change of backend, accelerator, algorithm, or shape changes the
// fingerprint and the cache key of one mapping, and equal configurations
// reproduce both byte for byte — so separate jobs over equal evaluators
// share cache entries.
func TestFingerprintsDistinguishEvaluators(t *testing.T) {
	f := newFixture(t, 2)
	otherShape, err := loopnest.NewCNNProblem("costmodel-test", 4, 16, 8, 14, 14, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	otherAlgo, err := loopnest.NewConv1DProblem("costmodel-test", 1024, 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	seenKeys := map[string]string{}
	add := func(label string, ev, twin costmodel.Evaluator) {
		t.Helper()
		fp := string(ev.AppendFingerprint(nil))
		if again := string(twin.AppendFingerprint(nil)); again != fp {
			t.Fatalf("%s: fingerprint unstable", label)
		}
		if prev, dup := seen[fp]; dup {
			t.Fatalf("fingerprint collision between %s and %s", prev, label)
		}
		seen[fp] = label
		key := cacheKey(t, ev, &f.ms[0])
		if again := cacheKey(t, twin, &f.ms[0]); again != key {
			t.Fatalf("%s: equal evaluators give different cache keys", label)
		}
		if prev, dup := seenKeys[key]; dup {
			t.Fatalf("cache-key collision between %s and %s", prev, label)
		}
		seenKeys[key] = label
	}
	for _, name := range []string{"timeloop", "roofline"} {
		for _, a := range []arch.Spec{arch.Default(2), arch.Edge(2)} {
			for _, p := range []loopnest.Problem{f.prob, otherShape, otherAlgo} {
				ev, err := costmodel.New(name, a, p)
				if err != nil {
					t.Fatal(err)
				}
				twin, err := costmodel.New(name, a, p)
				if err != nil {
					t.Fatal(err)
				}
				add(name+"/"+a.Name+"/"+p.String(), ev, twin)
			}
		}
	}
}

// TestEvaluatorIDsNeverReused fills the fingerprint intern table past its
// bound: the table starts over, but every ID it hands out is fresh, so an
// evaluator interned again after the reset gets a new ID and cache key,
// never one that named another evaluator.
func TestEvaluatorIDsNeverReused(t *testing.T) {
	f := newFixture(t, 7)
	ev := f.backend(t, "")
	before := cacheKey(t, ev, &f.ms[0])
	if again := cacheKey(t, ev, &f.ms[0]); again != before {
		t.Fatal("interned ID changed without a reset")
	}
	ids := map[uint64]bool{costmodel.EvaluatorID(ev.AppendFingerprint(nil)): true}
	fake := make([]byte, 4096)
	for i := 0; i <= costmodel.MaxInternedBytes/len(fake); i++ {
		binary.LittleEndian.PutUint64(fake, uint64(i))
		id := costmodel.EvaluatorID(fake)
		if ids[id] {
			t.Fatalf("ID %d handed out twice", id)
		}
		ids[id] = true
	}
	after := cacheKey(t, ev, &f.ms[0])
	if after == before {
		t.Fatal("evaluator kept its ID across a table reset")
	}
	if id := costmodel.EvaluatorID(ev.AppendFingerprint(nil)); ids[id] {
		t.Fatalf("ID %d handed out again after the reset", id)
	}
}

// TestMappingKeyCollisionFreedom: distinct mappings yield distinct keys,
// equal mappings identical keys, and key building into a warm buffer costs
// zero allocations. Integers are uvarints, so factors on either side of a
// byte-length boundary must stay apart too.
func TestMappingKeyCollisionFreedom(t *testing.T) {
	f := newFixture(t, 3)
	keys := map[string]int{}
	for i := range f.ms {
		key := string(costmodel.AppendMappingKey(nil, &f.ms[i]))
		if again := string(costmodel.AppendMappingKey(nil, &f.ms[i])); again != key {
			t.Fatal("mapping key not stable for equal inputs")
		}
		if prev, dup := keys[key]; dup {
			t.Fatalf("mapping key collision between mappings %d and %d", prev, i)
		}
		keys[key] = i
	}
	setters := []func(m *mapspace.Mapping, v int){
		func(m *mapspace.Mapping, v int) { m.Tile[0][0] = v },
		func(m *mapspace.Mapping, v int) { m.Tile[0][1] = v },
		func(m *mapspace.Mapping, v int) { m.Spatial[0] = v },
		func(m *mapspace.Mapping, v int) { m.Order[2][0] = v },
	}
	byKey := map[string]string{}
	for _, v := range []int{0, 1, 2, 127, 128, 129, 255, 256, 16383, 16384, 1 << 40, -1} {
		for _, set := range setters {
			m := f.ms[0].Clone()
			set(&m, v)
			key := string(costmodel.AppendMappingKey(nil, &m))
			fields := fmt.Sprint(m.Tile, m.Spatial, m.Order, m.Alloc)
			if prev, dup := byKey[key]; dup && prev != fields {
				t.Fatalf("mappings %s and %s share one key", prev, fields)
			}
			byKey[key] = fields
		}
	}
	buf := costmodel.AppendMappingKey(nil, &f.ms[0])
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		buf = costmodel.AppendMappingKey(buf[:0], &f.ms[i%len(f.ms)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm mapping-key build allocates %.1f per run, want 0", allocs)
	}
}

func TestEvaluateConvenience(t *testing.T) {
	f := newFixture(t, 4)
	ev := f.backend(t, "")
	c, err := costmodel.Evaluate(nil, ev, &f.ms[0]) // nil ctx must be tolerated
	if err != nil {
		t.Fatal(err)
	}
	if !(c.EDP > 0) {
		t.Fatalf("EDP = %v", c.EDP)
	}
}

func TestCostCopyToReusesSlicesAndDropsNothing(t *testing.T) {
	f := newFixture(t, 5)
	ev := f.backend(t, "")
	ctx := context.Background()
	var a, b costmodel.Cost
	if err := ev.EvaluateInto(ctx, &f.ms[0], &a); err != nil {
		t.Fatal(err)
	}
	if err := ev.EvaluateInto(ctx, &f.ms[1], &b); err != nil {
		t.Fatal(err)
	}
	scratch := b.Scratch
	a.CopyTo(&b)
	if b.Scratch != scratch {
		t.Fatal("CopyTo replaced the destination's backend workspace")
	}
	if b.EDP != a.EDP || b.TotalEnergyPJ != a.TotalEnergyPJ || b.Cycles != a.Cycles ||
		b.Utilization != a.Utilization || b.MACEnergyPJ != a.MACEnergyPJ ||
		b.ComputeCycles != a.ComputeCycles {
		t.Fatal("CopyTo lost scalar fields")
	}
	for l := range a.Accesses {
		for tt := range a.Accesses[l] {
			if b.Accesses[l][tt] != a.Accesses[l][tt] || b.EnergyPJ[l][tt] != a.EnergyPJ[l][tt] {
				t.Fatal("CopyTo lost per-level values")
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() { a.CopyTo(&b) })
	if allocs != 0 {
		t.Fatalf("steady-state CopyTo allocates %.1f per run, want 0", allocs)
	}
}

// TestCostCloneDetached pins the clone the cache stores: one allocation,
// every field equal, no workspace, and no storage shared with the source
// or between its own slices.
func TestCostCloneDetached(t *testing.T) {
	f := newFixture(t, 8)
	var src costmodel.Cost
	if err := f.backend(t, "").EvaluateInto(context.Background(), &f.ms[0], &src); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(src.Accesses, src.EnergyPJ, src.EDP)
	c := src.Clone()
	if c.Scratch != nil {
		t.Fatal("clone kept the evaluation workspace")
	}
	if got := fmt.Sprint(c.Accesses, c.EnergyPJ, c.EDP); got != want {
		t.Fatalf("clone %s, want %s", got, want)
	}
	energy := fmt.Sprint(c.EnergyPJ)
	for l := range c.Accesses {
		c.Accesses[l][0] = -1
		c.Accesses[l] = append(c.Accesses[l], -1) // must not spill into a neighbor
	}
	if got := fmt.Sprint(src.Accesses, src.EnergyPJ, src.EDP); got != want {
		t.Fatal("mutating the clone changed its source")
	}
	if got := fmt.Sprint(c.EnergyPJ); got != energy {
		t.Fatal("appending to one of the clone's slices overwrote another")
	}
	if allocs := testing.AllocsPerRun(100, func() { src.Clone() }); allocs != 1 {
		t.Fatalf("Clone allocates %.1f per call, want 1", allocs)
	}
}

// TestRenderAnyBackend covers the cost-report rendering for both backends:
// the table must name every level and tensor and carry the summary lines.
func TestRenderAnyBackend(t *testing.T) {
	f := newFixture(t, 6)
	for _, name := range []string{"timeloop", "roofline"} {
		ev := f.backend(t, name)
		c, err := costmodel.Evaluate(context.Background(), ev, &f.ms[0])
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		c.Render(&buf, f.prob.Algo)
		out := buf.String()
		for _, want := range []string{"level", "L1", "L2", "DRAM", "MACs",
			"total energy", "cycles", "utilization", "EDP"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s report missing %q:\n%s", name, want, out)
			}
		}
		for _, tensor := range f.prob.Algo.Tensors {
			if !strings.Contains(out, tensor.Name) {
				t.Fatalf("%s report missing tensor %q:\n%s", name, tensor.Name, out)
			}
		}
	}
}
