package costmodel_test

import (
	"context"
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

// TestFingerprintsDistinguishEvaluators pins the fingerprint contract: any
// change of backend, accelerator, algorithm, or shape changes the
// fingerprint, and equal configurations reproduce it byte for byte.
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
