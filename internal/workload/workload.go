// Package workload is the declarative einsum front-end of the framework:
// it compiles index-expression specs like
//
//	O[m,n] += A[m,k] * B[k,n]
//
// into validated loopnest.Algorithm values — deriving the dimension names,
// each tensor's relevance set and footprint function (including the halo
// footprints of convolution-style subscripts such as I[n,c,x+r,y+s]), the
// output tensor, and the datapath width, with the expression kept on the
// algorithm (loopnest.Algorithm.Expr).
//
// The paper frames Mind Mappings as target-algorithm independent
// (contribution 1: no domain-specific heuristics); this package makes that
// operational: any algorithm expressible as an affine loop nest over
// multilinear tensor accesses is one spec away from the full pipeline —
// map-space enumeration, cost models, surrogate training, gradient search,
// the HTTP service. The built-in specs reproduce the paper's three
// workloads (cnn-layer, mttkrp, conv1d) byte-for-byte — property tests pin
// their fingerprints and costs to the formerly hand-coded constructors —
// and add gemm, batched-matmul, depthwise-conv, and attention-score.
//
// Importing this package (blank imports suffice) seeds the loopnest
// algorithm registry, the one record of which workloads exist, so
// loopnest.AlgorithmByName resolves every built-in workload. Runtime-defined
// workloads enter the same registry through Register, or stay anonymous via
// Compile and CompileInline (the CLI's -einsum flag and the service's
// "einsum" request field).
package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"mindmappings/internal/loopnest"
)

// Spec is one declarative workload definition.
type Spec struct {
	// Name is the registry key and the compiled algorithm's name. Empty
	// means anonymous: Compile derives the deterministic name
	// "einsum-<hash>" from the normalized expression, so independently
	// supplied identical inline specs resolve to the same workload (a
	// surrogate trained through -einsum matches a search for the same
	// expression).
	Name string
	// Expr is the einsum expression; see the grammar in parse.go.
	Expr string
	// Dims optionally pins the canonical dimension order. When empty the
	// order of first appearance in Expr (output first, then inputs) is
	// used. Must be a permutation of the dimensions Expr mentions.
	Dims []string
	// SampleSpace lists representative sizes per dimension for Phase-1
	// problem sampling (paper §5.5). Dimensions without an entry fall back
	// to DefaultSampleSizes.
	SampleSpace map[string][]int
}

// DefaultSampleSizes is the per-dimension representative-size fallback for
// specs that do not pin a SampleSpace entry: small powers of two, wide
// enough for the surrogate to see varied tilings yet small enough that
// random problems stay laptop-tractable.
var DefaultSampleSizes = []int{4, 8, 16, 32, 64, 128}

// anonymousName derives the deterministic registry-independent name of an
// inline spec from its whitespace-normalized expression. 64 hash bits keep
// accidental collisions out of reach for any realistic number of distinct
// inline specs per process (and structural identity is guarded separately:
// evaluator fingerprints embed the full algorithm fingerprint, so even a
// name collision cannot alias cost-model cache entries).
func anonymousName(expr string) string {
	normalized := strings.Join(strings.Fields(expr), "")
	sum := sha256.Sum256([]byte(normalized))
	return "einsum-" + hex.EncodeToString(sum[:8])
}

// Register compiles a spec and registers the algorithm with loopnest, so
// loopnest.AlgorithmByName and loopnest.AlgorithmNames resolve it. It
// panics on a compile error or a duplicate name, like costmodel.Register;
// built-in specs register from this package's init. A workload that need
// not be addressable by name is compiled with Compile or CompileInline
// and never registered.
func Register(spec Spec) {
	algo, err := Compile(spec)
	if err != nil {
		panic(err.Error())
	}
	loopnest.RegisterAlgorithm(algo)
}

// Info describes one registered workload for listings (the `mindmappings
// algos` subcommand, the service's GET /v1/models).
type Info struct {
	Name string `json:"name"`
	// Expr is the einsum expression the workload compiles from.
	Expr string `json:"einsum"`
	// Dims is the canonical dimension order.
	Dims []string `json:"dims"`
	// Tensors renders each tensor with its subscript, inputs first and the
	// output last, e.g. "A[M,K]".
	Tensors []string `json:"tensors"`
	// ExampleDims is a valid dims map for the workload (each dimension's
	// middle representative size), ready to paste into a request.
	ExampleDims map[string]int `json:"example_dims"`
	// Fingerprint is the workload identity surrogates are stamped with.
	Fingerprint string `json:"fingerprint"`
}

// List describes every registered workload, sorted by name.
func List() []Info {
	names := loopnest.AlgorithmNames()
	out := make([]Info, 0, len(names))
	for _, name := range names {
		algo, err := loopnest.AlgorithmByName(name)
		if err != nil {
			continue
		}
		info := Info{
			Name:        name,
			Expr:        algo.Expr,
			Dims:        append([]string(nil), algo.DimNames...),
			ExampleDims: make(map[string]int, algo.NumDims()),
			Fingerprint: algo.Fingerprint(),
		}
		for d, dn := range algo.DimNames {
			vals := algo.SampleSpace[d]
			info.ExampleDims[dn] = vals[len(vals)/2]
		}
		if outT, ins, err := parseExpr(algo.Expr); err == nil {
			for _, t := range append(ins, outT) {
				var axes []string
				for _, term := range t.terms {
					axes = append(axes, strings.Join(term.indices, "+"))
				}
				info.Tensors = append(info.Tensors, t.name+"["+strings.Join(axes, ",")+"]")
			}
		}
		out = append(out, info)
	}
	return out
}

// CompileInline compiles an anonymous einsum expression — the CLI's
// -einsum flag and the service's "einsum" request field — without touching
// the registry. The algorithm's derived name is deterministic in the
// expression, so a surrogate trained for an inline spec matches any later
// search for the same expression.
func CompileInline(expr string) (*loopnest.Algorithm, error) {
	return Compile(Spec{Expr: expr})
}

// Resolve is the one workload lookup behind a request's algo/einsum pair
// (the service's search requests, the trainer's training requests):
// exactly one of a registered name or an inline expression. Errors carry
// no package prefix; each caller adds its own.
func Resolve(name, einsum string) (*loopnest.Algorithm, error) {
	switch {
	case (name == "") == (einsum == ""):
		return nil, fmt.Errorf("exactly one of algo or einsum is required (registered workloads: %s)",
			strings.Join(loopnest.AlgorithmNames(), ", "))
	case einsum != "":
		return CompileInline(einsum)
	}
	return loopnest.AlgorithmByName(name)
}
