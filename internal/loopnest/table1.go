package loopnest

import (
	"fmt"
	"math"
	"math/rand"
)

// Table1CNNProblems returns the six CNN layers of the paper's Table 1.
// Columns there are N, K, (H,W), (R,S), C; output dims follow at stride 1.
func Table1CNNProblems() ([]Problem, error) {
	specs := []struct {
		name            string
		n, k, hw, rs, c int
	}{
		{"ResNet_Conv_3", 16, 128, 28, 3, 128},
		{"ResNet_Conv_4", 16, 256, 14, 3, 256},
		{"Inception_Conv_2", 32, 192, 56, 3, 192},
		{"VGG_Conv_2", 16, 128, 112, 3, 64},
		{"AlexNet_Conv_2", 8, 256, 27, 5, 96},
		{"AlexNet_Conv_4", 8, 384, 13, 3, 384},
	}
	var out []Problem
	for _, s := range specs {
		p, err := NewCNNProblem(s.name, s.n, s.k, s.c, s.hw, s.hw, s.rs, s.rs)
		if err != nil {
			return nil, fmt.Errorf("loopnest: table 1 %s: %w", s.name, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// Table1MTTKRPProblems returns the two MTTKRP shapes of Table 1
// (I, J, K, L).
func Table1MTTKRPProblems() ([]Problem, error) {
	specs := []struct {
		name       string
		i, j, k, l int
	}{
		{"MTTKRP_0", 128, 1024, 4096, 2048},
		{"MTTKRP_1", 2048, 4096, 1024, 128},
	}
	var out []Problem
	for _, s := range specs {
		p, err := NewMTTKRPProblem(s.name, s.i, s.j, s.k, s.l)
		if err != nil {
			return nil, fmt.Errorf("loopnest: table 1 %s: %w", s.name, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// Table1Problems returns all eight Table-1 target problems in paper order.
func Table1Problems() ([]Problem, error) {
	cnn, err := Table1CNNProblems()
	if err != nil {
		return nil, err
	}
	mtt, err := Table1MTTKRPProblems()
	if err != nil {
		return nil, err
	}
	return append(cnn, mtt...), nil
}

// Table1Problem returns the Table-1 problem called name for the algorithm
// called algo. Its not-found error carries no package prefix; callers add
// their own context.
func Table1Problem(name, algo string) (Problem, error) {
	all, err := Table1Problems()
	if err != nil {
		return Problem{}, err
	}
	for _, p := range all {
		if p.Name == name && p.Algo.Name == algo {
			return p, nil
		}
	}
	return Problem{}, fmt.Errorf("problem %q not found for %s", name, algo)
}

// RandomProblem samples a representative problem for the algorithm by
// drawing each dimension from its typical-value list (paper §5.5: "we sample
// from a range of typical values for each parameter making up the problem").
// The surrogate's training set is built from such problems so it can
// interpolate to the unseen Table-1 shapes.
func (a *Algorithm) RandomProblem(rng *rand.Rand) Problem {
	shape := make([]int, a.NumDims())
	for d := range shape {
		vals := a.SampleSpace[d]
		shape[d] = vals[rng.Intn(len(vals))]
	}
	return Problem{
		Algo:  a,
		Name:  fmt.Sprintf("%s-random", a.Name),
		Shape: shape,
	}
}

// NumSampleProblems returns how many distinct problems RandomProblem can
// draw: the product over dimensions of the distinct sizes in SampleSpace,
// saturating at math.MaxInt.
func (a *Algorithm) NumSampleProblems() int {
	n := 1
	for _, vals := range a.SampleSpace {
		distinct := map[int]bool{}
		for _, v := range vals {
			distinct[v] = true
		}
		k := len(distinct)
		if k == 0 {
			return 0
		}
		if n > math.MaxInt/k {
			n = math.MaxInt
			continue
		}
		n *= k
	}
	return n
}

// SampleValues returns a copy of the representative per-dimension sizes
// used by RandomProblem, for tests and documentation.
func (a *Algorithm) SampleValues() [][]int {
	out := make([][]int, len(a.SampleSpace))
	for i, vs := range a.SampleSpace {
		out[i] = append([]int(nil), vs...)
	}
	return out
}
