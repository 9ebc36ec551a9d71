package workload

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"mindmappings/internal/loopnest"
)

func TestCompileDerivesStructure(t *testing.T) {
	algo, err := Compile(Spec{Name: "g", Expr: "O[m,n] += A[m,k] * B[k,n]"})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(algo.DimNames, ","); got != "m,n,k" {
		t.Fatalf("appearance-order dims = %s", got)
	}
	if algo.OperandsPerMAC != 2 {
		t.Fatalf("operands = %d", algo.OperandsPerMAC)
	}
	if len(algo.Tensors) != 3 || !algo.Tensors[2].Output || algo.Tensors[2].Name != "O" {
		t.Fatalf("tensors = %+v", algo.Tensors)
	}
	if algo.OutputTensor() != 2 {
		t.Fatalf("output index = %d", algo.OutputTensor())
	}
	// A[m,k]: tile (m=2,n=3,k=5) -> 10 words.
	if fp := algo.Tensors[0].Footprint([]int{2, 3, 5}); fp != 10 {
		t.Fatalf("A footprint = %d", fp)
	}
	if len(algo.SampleSpace) != 3 {
		t.Fatalf("sample space rows = %d", len(algo.SampleSpace))
	}
}

func TestCompileExplicitDimOrder(t *testing.T) {
	algo, err := Compile(Spec{Name: "g", Expr: "O[m,n] += A[m,k] * B[k,n]", Dims: []string{"k", "n", "m"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(algo.DimNames, ","); got != "k,n,m" {
		t.Fatalf("dims = %s", got)
	}
	// A[m,k] under order (k,n,m): tile k=7,n=1,m=3 -> 21.
	if fp := algo.Tensors[0].Footprint([]int{7, 1, 3}); fp != 21 {
		t.Fatalf("A footprint = %d", fp)
	}
}

func TestCompileHaloFootprint(t *testing.T) {
	algo, err := Compile(Spec{Name: "c", Expr: "O[x] += F[r] * I[x+r]"})
	if err != nil {
		t.Fatal(err)
	}
	// dims: x, r. I's extent is x'+r'-1.
	if fp := algo.Tensors[1].Footprint([]int{10, 3}); fp != 12 {
		t.Fatalf("halo footprint = %d, want 12", fp)
	}
	// Three-way halo: extent is the sum minus 2.
	algo, err = Compile(Spec{Name: "c3", Expr: "O[x] += A[x+r+s] * F[r,s]"})
	if err != nil {
		t.Fatal(err)
	}
	if fp := algo.Tensors[0].Footprint([]int{10, 3, 4}); fp != 10+3+4-2 {
		t.Fatalf("3-way halo footprint = %d, want %d", fp, 10+3+4-2)
	}
}

func TestCompileRejections(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error
	}{
		{"output halo", Spec{Expr: "O[x+r] += I[x] * F[r]"}, "halo term on output"},
		{"dup tensor", Spec{Expr: "O[i,j] += A[i,k] * A[k,j]"}, "already used"},
		{"dup index in tensor", Spec{Expr: "O[i] += A[i,i]"}, "repeats within tensor"},
		{"dup index across halo", Spec{Expr: "O[i] += A[i, i+j] * B[j]"}, "repeats within tensor"},
		{"unread output dim", Spec{Expr: "O[i,j] += A[i]"}, "read by no input"},
		{"dims not a permutation", Spec{Expr: "O[i] += A[i]", Dims: []string{"i", "q"}}, "Dims"},
		{"dims too short", Spec{Expr: "O[i] += A[i,j]", Dims: []string{"i"}}, "Dims lists 1"},
		{"dims repeated", Spec{Expr: "O[i] += A[i,j]", Dims: []string{"i", "i"}}, "repeats"},
		{"unknown sample dim", Spec{Expr: "O[i] += A[i]", SampleSpace: map[string][]int{"z": {2}}}, "never uses"},
		{"bad sample value", Spec{Expr: "O[i] += A[i]", SampleSpace: map[string][]int{"i": {0}}}, ">= 1"},
		{"syntax error", Spec{Expr: "O[i] +="}, "pos 8"},
	}
	for _, tc := range cases {
		_, err := Compile(tc.spec)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestAnonymousNameDeterministic(t *testing.T) {
	a1, err := CompileInline("O[m,n] += A[m,k] * B[k,n]")
	if err != nil {
		t.Fatal(err)
	}
	// Whitespace-insensitive: the same expression modulo spacing gets the
	// same derived name (so train/search pairs line up).
	a2, err := CompileInline("O[m, n]+=A[m,k] *B[k,n]")
	if err != nil {
		t.Fatal(err)
	}
	if a1.Name != a2.Name {
		t.Fatalf("derived names differ: %q vs %q", a1.Name, a2.Name)
	}
	if !strings.HasPrefix(a1.Name, "einsum-") {
		t.Fatalf("derived name = %q", a1.Name)
	}
	a3, err := CompileInline("O[m,n] += A[m,j] * B[j,n]")
	if err != nil {
		t.Fatal(err)
	}
	if a3.Name == a1.Name {
		t.Fatal("different expressions share a derived name")
	}
	if a1.Fingerprint() != a2.Fingerprint() {
		t.Fatal("same expression, different fingerprints")
	}
	if a1.Fingerprint() == a3.Fingerprint() {
		t.Fatal("different expressions share a fingerprint")
	}
}

// TestRegister: a runtime spec enters the one registry, loopnest's, and
// resolves by name; a duplicate name and a malformed spec panic.
func TestRegister(t *testing.T) {
	Register(Spec{Name: "test-runtime-ttm", Expr: "O[i,j,k] += A[i,l] * B[l,j,k]"})
	algo, err := loopnest.AlgorithmByName("test-runtime-ttm")
	if err != nil {
		t.Fatal(err)
	}
	if algo.Name != "test-runtime-ttm" || algo.Expr != "O[i,j,k] += A[i,l] * B[l,j,k]" {
		t.Fatalf("name = %q, expr = %q", algo.Name, algo.Expr)
	}
	if !slices.Contains(loopnest.AlgorithmNames(), "test-runtime-ttm") {
		t.Fatal("spec not listed")
	}
	mustPanic := func(what string, spec Spec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s registered without a panic", what)
			}
		}()
		Register(spec)
	}
	mustPanic("duplicate name", Spec{Name: "test-runtime-ttm", Expr: "O[i] += A[i]"})
	mustPanic("malformed spec", Spec{Name: "test-bad", Expr: "O[i] +="})
	if _, err := loopnest.AlgorithmByName("test-bad"); err == nil {
		t.Fatal("malformed spec resolves")
	}
}

// TestRegisterWhileResolving: registrations run while other goroutines
// resolve names and read a registered algorithm's cached fingerprint
// (meaningful under -race).
func TestRegisterWhileResolving(t *testing.T) {
	gemm := loopnest.MustAlgorithm("gemm")
	want := gemm.Fingerprint()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if got := gemm.Fingerprint(); got != want {
					t.Errorf("gemm fingerprint %s during registration, want %s", got, want)
					return
				}
				if _, err := loopnest.AlgorithmByName(loopnest.AlgorithmNames()[0]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := range 4 {
		Register(Spec{Name: fmt.Sprintf("test-concurrent-%d", i), Expr: "O[m] += A[m,k] * B[k]"})
	}
	close(done)
	wg.Wait()
}

func TestListCoversBuiltins(t *testing.T) {
	infos := List()
	byName := map[string]Info{}
	for _, info := range infos {
		byName[info.Name] = info
	}
	for _, name := range []string{"cnn-layer", "mttkrp", "conv1d", "gemm", "batched-matmul", "depthwise-conv", "attention-score"} {
		info, ok := byName[name]
		if !ok {
			t.Fatalf("%s missing from List()", name)
		}
		if info.Expr == "" || len(info.Dims) == 0 || len(info.Tensors) == 0 || info.Fingerprint == "" {
			t.Fatalf("%s listing incomplete: %+v", name, info)
		}
		if len(info.ExampleDims) != len(info.Dims) {
			t.Fatalf("%s example dims incomplete: %+v", name, info.ExampleDims)
		}
		algo, err := loopnest.AlgorithmByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := algo.ProblemFromDims("example", info.ExampleDims); err != nil {
			t.Fatalf("%s example dims do not build a problem: %v", name, err)
		}
	}
}
