// Package loopnest defines the algorithms and problems whose mappings are
// searched: an Algorithm is a family of perfectly nested affine loop
// computations over a set of named dimensions and tensors (dataspaces), and
// a Problem is a parameterized instance of an algorithm (paper §2.1: "a
// problem is a parameterized instance of an algorithm").
//
// Algorithms are registered by name (RegisterAlgorithm / AlgorithmByName),
// mirroring the costmodel backend registry. The declarative einsum
// front-end in internal/workload compiles index-expression specs into
// validated Algorithms and seeds the registry with the paper's three
// workloads — CNN-Layer (§5.1.1, Equation 3), MTTKRP (Equation 4), the
// pedagogical 1D-Convolution from §3 (Equation 2) — plus further tensor
// workloads; import it (directly or blank) to populate the registry.
// Table1Problems reproduces the paper's Table 1 workloads.
package loopnest

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Tensor describes one dataspace of an algorithm: which loop dimensions
// index it, how tile sizes translate into a resident footprint (in words),
// and whether it is the computation's output (outputs incur partial-sum
// read-modify-write traffic).
type Tensor struct {
	Name string
	// Dims lists the algorithm-dimension indices this tensor depends on.
	// A loop over a dimension not listed here can reuse the tensor's tile.
	Dims []int
	// Terms lists the tensor's subscript terms, each as the dimensions it
	// sums: {X} for a bare index, {X, R} for the halo term X+R. Every
	// dimension of Dims appears in exactly one term.
	Terms [][]int
	// Output marks the tensor produced by the computation.
	Output bool
}

// Footprint returns the number of distinct words the tensor occupies for
// the given per-dimension tile sizes (len == number of algorithm dims):
// the product over subscript terms of the term's extent, where a bare
// term d spans tile[d] and a halo term d1+…+dk the sliding window
// tile[d1]+…+tile[dk]-(k-1).
func (t *Tensor) Footprint(tile []int) int64 {
	words := int64(1)
	for _, term := range t.Terms {
		extent := int64(1 - len(term))
		for _, d := range term {
			extent += int64(tile[d])
		}
		words *= extent
	}
	return words
}

// Algorithm is a family of problems over fixed dimensions and tensors.
type Algorithm struct {
	Name     string
	DimNames []string
	Tensors  []Tensor
	// OperandsPerMAC is how many input operands each innermost compute
	// operation consumes (2 for CNN, 3 for MTTKRP; paper §5.1.2).
	OperandsPerMAC int
	// SampleSpace lists representative sizes per dimension used when
	// sampling random problems for surrogate training (paper §5.5
	// "Representative problems"). Custom algorithms must populate it
	// before calling RandomProblem or surrogate.Generate.
	SampleSpace [][]int
}

// NumDims returns the number of loop dimensions.
func (a *Algorithm) NumDims() int { return len(a.DimNames) }

// OutputTensor returns the index of the output tensor.
func (a *Algorithm) OutputTensor() int {
	for i := range a.Tensors {
		if a.Tensors[i].Output {
			return i
		}
	}
	return -1
}

// Relevance returns, per tensor, a table over the algorithm's dimensions:
// Relevance()[t][d] reports whether d indexes tensor t. Cost models build
// it once so their per-loop reuse tests are an index, not a scan of Dims.
func (a *Algorithm) Relevance() [][]bool {
	nd := a.NumDims()
	rel := make([][]bool, len(a.Tensors))
	flat := make([]bool, len(a.Tensors)*nd)
	for t := range a.Tensors {
		rel[t] = flat[t*nd : (t+1)*nd : (t+1)*nd]
		for _, d := range a.Tensors[t].Dims {
			rel[t][d] = true
		}
	}
	return rel
}

// Problem is a specific shape of an algorithm, e.g. one CNN layer.
type Problem struct {
	Algo  *Algorithm
	Name  string
	Shape []int // size per dimension, len == Algo.NumDims()
}

// Validate checks that the shape is complete and positive and that derived
// tensor footprints are well-formed.
func (p *Problem) Validate() error {
	if p.Algo == nil {
		return errors.New("loopnest: problem has no algorithm")
	}
	if len(p.Shape) != p.Algo.NumDims() {
		return fmt.Errorf("loopnest: problem %q has %d dims, algorithm %q needs %d",
			p.Name, len(p.Shape), p.Algo.Name, p.Algo.NumDims())
	}
	for d, s := range p.Shape {
		if s < 1 {
			return fmt.Errorf("loopnest: problem %q dim %s = %d, must be >= 1",
				p.Name, p.Algo.DimNames[d], s)
		}
	}
	for i := range p.Algo.Tensors {
		if fp := p.Algo.Tensors[i].Footprint(p.Shape); fp < 1 {
			return fmt.Errorf("loopnest: problem %q tensor %s footprint %d",
				p.Name, p.Algo.Tensors[i].Name, fp)
		}
	}
	return nil
}

// MACs returns the total number of innermost compute operations: the
// product of all dimension sizes.
func (p *Problem) MACs() float64 {
	macs := 1.0
	for _, s := range p.Shape {
		macs *= float64(s)
	}
	return macs
}

// TotalWords returns the summed full footprint of all tensors in words.
func (p *Problem) TotalWords() float64 {
	total := 0.0
	for i := range p.Algo.Tensors {
		total += float64(p.Algo.Tensors[i].Footprint(p.Shape))
	}
	return total
}

// String renders the problem as "name(dim=size, ...)".
func (p *Problem) String() string {
	s := p.Name + "("
	for d, v := range p.Shape {
		if d > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%d", p.Algo.DimNames[d], v)
	}
	return s + ")"
}

// AppendPID appends the problem-identifier vector fed to the surrogate to
// dst and returns the extended slice: log2 of each dimension size (paper
// §4.1.1: "we encode each pid as the specific parameterization of the
// problem"). Log-space keeps the magnitudes of very different dimensions
// comparable before whitening.
func (p *Problem) AppendPID(dst []float64) []float64 {
	for _, s := range p.Shape {
		dst = append(dst, math.Log2(float64(s)))
	}
	return dst
}

var (
	regMu    sync.RWMutex
	registry = map[string]*Algorithm{}
)

// RegisterAlgorithm makes an algorithm resolvable by name through
// AlgorithmByName. It panics on a nil algorithm, an empty name, or a
// duplicate registration, like database/sql.Register and
// costmodel.Register. The registered *Algorithm is shared by every
// resolver, so callers must treat it as immutable.
//
// internal/workload registers the built-in workloads from its package
// init; pull them in with a blank import:
//
//	import _ "mindmappings/internal/workload" // register the built-in workloads
func RegisterAlgorithm(a *Algorithm) {
	if a == nil || a.Name == "" {
		panic("loopnest: RegisterAlgorithm with nil algorithm or empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[a.Name]; dup {
		panic(fmt.Sprintf("loopnest: algorithm %q registered twice", a.Name))
	}
	registry[a.Name] = a
}

// AlgorithmByName returns the algorithm registered under name. Unknown
// names report the registered alternatives.
func AlgorithmByName(name string) (*Algorithm, error) {
	regMu.RLock()
	a, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		names := AlgorithmNames()
		if len(names) == 0 {
			return nil, fmt.Errorf("loopnest: unknown algorithm %q (no workloads registered; import mindmappings/internal/workload)", name)
		}
		return nil, fmt.Errorf("loopnest: unknown algorithm %q (registered: %s)",
			name, strings.Join(names, ", "))
	}
	return a, nil
}

// MustAlgorithm returns the registered algorithm or panics on an unknown
// name — for tests, examples, and fixtures where a missing registration is
// a programming error (the workload package was not linked in).
func MustAlgorithm(name string) *Algorithm {
	a, err := AlgorithmByName(name)
	if err != nil {
		panic(err)
	}
	return a
}

// AlgorithmRegistered reports whether name resolves through the registry.
func AlgorithmRegistered(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// AlgorithmNames returns the registered algorithm names, sorted.
func AlgorithmNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewProblem builds a problem of this algorithm from sizes in canonical
// dimension order (DimNames order) and validates it.
func (a *Algorithm) NewProblem(name string, shape []int) (Problem, error) {
	p := Problem{Algo: a, Name: name, Shape: append([]int(nil), shape...)}
	if err := p.Validate(); err != nil {
		return Problem{}, err
	}
	return p, nil
}

// ProblemFromDims builds a problem from a dimension-name → size map — the
// wire form the service's generic "dims" request field uses. Every
// dimension must be present and no unknown names are allowed.
func (a *Algorithm) ProblemFromDims(name string, dims map[string]int) (Problem, error) {
	shape := make([]int, a.NumDims())
	seen := 0
	for d, dn := range a.DimNames {
		size, ok := dims[dn]
		if !ok {
			return Problem{}, fmt.Errorf("loopnest: algorithm %s needs dims %s; %s is missing",
				a.Name, strings.Join(a.DimNames, ","), dn)
		}
		shape[d] = size
		seen++
	}
	if len(dims) != seen {
		for dn := range dims {
			if dimIndexOf(a.DimNames, dn) < 0 {
				return Problem{}, fmt.Errorf("loopnest: algorithm %s has no dimension %q (dims: %s)",
					a.Name, dn, strings.Join(a.DimNames, ","))
			}
		}
	}
	return a.NewProblem(name, shape)
}

// dimIndexOf returns the index of name in dims, or -1.
func dimIndexOf(dims []string, name string) int {
	for i, d := range dims {
		if d == name {
			return i
		}
	}
	return -1
}

// CNN dimension indices (paper Equation 3). X and Y are the output spatial
// dimensions: X = H-R+1, Y = W-S+1 at stride 1.
const (
	CNNDimN = iota
	CNNDimK
	CNNDimC
	CNNDimX
	CNNDimY
	CNNDimR
	CNNDimS
)

// NewCNNProblem builds a CNN-Layer problem from the input-image view used by
// Table 1 (N, K, C, H, W, R, S at stride 1); the output resolution is
// X=H-R+1, Y=W-S+1. The cnn-layer algorithm comes from the registry
// (internal/workload compiles and registers it from its einsum spec).
func NewCNNProblem(name string, n, k, c, h, w, r, s int) (Problem, error) {
	algo, err := AlgorithmByName("cnn-layer")
	if err != nil {
		return Problem{}, err
	}
	x := h - r + 1
	y := w - s + 1
	return algo.NewProblem(name, []int{n, k, c, x, y, r, s})
}

// MTTKRP dimension indices (paper Equation 4).
const (
	MTTKRPDimI = iota
	MTTKRPDimJ
	MTTKRPDimK
	MTTKRPDimL
)

// NewMTTKRPProblem builds an MTTKRP problem with the given matrix shapes.
func NewMTTKRPProblem(name string, i, j, k, l int) (Problem, error) {
	algo, err := AlgorithmByName("mttkrp")
	if err != nil {
		return Problem{}, err
	}
	return algo.NewProblem(name, []int{i, j, k, l})
}

// Conv1D dimension indices (paper Equation 2): X is the output width, R the
// filter size.
const (
	Conv1DDimX = iota
	Conv1DDimR
)

// NewConv1DProblem builds a 1D-convolution problem from the input width W
// and filter size R (output width W-R+1).
func NewConv1DProblem(name string, w, r int) (Problem, error) {
	algo, err := AlgorithmByName("conv1d")
	if err != nil {
		return Problem{}, err
	}
	return algo.NewProblem(name, []int{w - r + 1, r})
}
