package workload

import (
	"fmt"

	"mindmappings/internal/loopnest"
)

// Compile turns a spec into a validated loopnest.Algorithm:
//
//   - DimNames come from Spec.Dims, or from first appearance in the
//     expression (output subscripts first, then each input left to right).
//   - Tensors are the inputs in source order followed by the output, each
//     with its relevance set (the dimensions its subscripts mention —
//     primary indices first, halo offsets last; see buildTensor) and its
//     subscript terms as dimension indices, from which
//     loopnest.Tensor.Footprint derives the footprint: the product over
//     terms of the term extent, where a bare term d has extent tile[d] and
//     a halo term d1+…+dk has the sliding-window extent
//     tile[d1]+…+tile[dk]-(k-1).
//   - OperandsPerMAC is the number of input tensors (one operand each).
//   - SampleSpace rows follow Spec.SampleSpace with DefaultSampleSizes for
//     unlisted dimensions.
//
// Structural errors — malformed syntax, halo terms on the output, repeated
// indices within one tensor, output dimensions no input reads, unknown
// names in Dims or SampleSpace — are reported with the 1-based position in
// the expression where applicable.
func Compile(spec Spec) (*loopnest.Algorithm, error) {
	fail := func(err error) (*loopnest.Algorithm, error) {
		return nil, fmt.Errorf("workload: spec %q: %w", spec.Expr, err)
	}
	out, ins, err := parseExpr(spec.Expr)
	if err != nil {
		return fail(err)
	}

	// Tensor names must be unique: a repeated operand would double-count
	// its footprint in every buffer-fit check.
	seenTensor := map[string]int{out.name: out.pos}
	for _, in := range ins {
		if prev, dup := seenTensor[in.name]; dup {
			return fail(errAt(in.pos, "tensor %q already used at pos %d", in.name, prev))
		}
		seenTensor[in.name] = in.pos
	}

	// Discover dimensions in appearance order; validate subscripts.
	var discovered []string
	dimIdx := map[string]int{}
	noteDim := func(name string) {
		if _, ok := dimIdx[name]; !ok {
			dimIdx[name] = len(discovered)
			discovered = append(discovered, name)
		}
	}
	checkTensor := func(t parsedTensor, output bool) error {
		seenIdx := map[string]int{}
		for _, term := range t.terms {
			if output && len(term.indices) > 1 {
				return errAt(term.pos, "halo term on output tensor %q (outputs must use bare indices)", t.name)
			}
			for _, idx := range term.indices {
				if prev, dup := seenIdx[idx]; dup {
					return errAt(term.pos, "index %q repeats within tensor %q (first at pos %d)", idx, t.name, prev)
				}
				seenIdx[idx] = term.pos
				noteDim(idx)
			}
		}
		return nil
	}
	if err := checkTensor(out, true); err != nil {
		return fail(err)
	}
	inputDims := map[string]bool{}
	for _, in := range ins {
		if err := checkTensor(in, false); err != nil {
			return fail(err)
		}
		for _, term := range in.terms {
			for _, idx := range term.indices {
				inputDims[idx] = true
			}
		}
	}
	for _, term := range out.terms {
		if idx := term.indices[0]; !inputDims[idx] {
			return fail(errAt(term.pos, "output dimension %q is read by no input tensor", idx))
		}
	}

	// Canonical dimension order: Spec.Dims when given, else appearance.
	dims := discovered
	if len(spec.Dims) > 0 {
		if len(spec.Dims) != len(discovered) {
			return fail(fmt.Errorf("Dims lists %d names, expression uses %d (%v)",
				len(spec.Dims), len(discovered), discovered))
		}
		seen := map[string]bool{}
		for _, d := range spec.Dims {
			if _, ok := dimIdx[d]; !ok {
				return fail(fmt.Errorf("Dims names %q, which the expression never uses", d))
			}
			if seen[d] {
				return fail(fmt.Errorf("Dims repeats %q", d))
			}
			seen[d] = true
		}
		dims = append([]string(nil), spec.Dims...)
		for i, d := range dims {
			dimIdx[d] = i
		}
	}

	name := spec.Name
	if name == "" {
		name = anonymousName(spec.Expr)
	}
	algo := &loopnest.Algorithm{
		Name:           name,
		DimNames:       dims,
		OperandsPerMAC: len(ins),
	}

	// SampleSpace rows in canonical order, defaulting unlisted dims.
	for dn := range spec.SampleSpace {
		if _, ok := dimIdx[dn]; !ok {
			return fail(fmt.Errorf("SampleSpace names dimension %q, which the expression never uses", dn))
		}
	}
	for _, dn := range dims {
		vals := spec.SampleSpace[dn]
		if len(vals) == 0 {
			vals = DefaultSampleSizes
		}
		for _, v := range vals {
			if v < 1 {
				return fail(fmt.Errorf("SampleSpace for %s contains %d, must be >= 1", dn, v))
			}
		}
		algo.SampleSpace = append(algo.SampleSpace, append([]int(nil), vals...))
	}

	for _, in := range ins {
		algo.Tensors = append(algo.Tensors, buildTensor(in, dimIdx, false))
	}
	algo.Tensors = append(algo.Tensors, buildTensor(out, dimIdx, true))
	return algo, nil
}

// buildTensor lowers one parsed tensor reference: its subscript terms as
// dimension indices and its relevance set. The relevance set lists each
// subscript term's primary index in term order, then the remaining halo
// offsets in term order — "loop dimensions first, window offsets last".
// The order is load-bearing: mapspace's projection breaks ties by Dims
// iteration order, and this rule reproduces the hand-coded constructors'
// behavior exactly.
func buildTensor(t parsedTensor, dimIdx map[string]int, output bool) loopnest.Tensor {
	terms := make([][]int, 0, len(t.terms))
	var relevant, halos []int
	for _, term := range t.terms {
		dims := make([]int, 0, len(term.indices))
		for _, idx := range term.indices {
			dims = append(dims, dimIdx[idx])
		}
		terms = append(terms, dims)
		relevant = append(relevant, dims[0])
		halos = append(halos, dims[1:]...)
	}
	relevant = append(relevant, halos...)
	return loopnest.Tensor{
		Name:   t.name,
		Dims:   relevant,
		Terms:  terms,
		Output: output,
	}
}
