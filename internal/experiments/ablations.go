package experiments

import (
	"fmt"
	"io"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/search"
	"mindmappings/internal/surrogate"
)

// This file contains studies beyond the paper's figures: ablations of the
// design choices DESIGN.md calls out (search components, tail-enriched
// sampling) and the architecture-generality check implied by §5.4.3.

// ComponentAblation is one row of the search-component ablation.
type ComponentAblation struct {
	Variant string
	EDP     float64 // mean final normalized EDP
}

// SearchComponents ablates the Phase-2 machinery on the algorithm's fast
// problem: full Mind Mappings, gradient descent without random injections,
// descent without step preconditioning, surrogate-assisted SA (gradient-free
// control at identical per-step cost), and beam search (an extra black-box
// reference). It answers "are the gradients doing the work?".
func (h *Harness) SearchComponents(w io.Writer, algoName string) ([]ComponentAblation, error) {
	sur, err := h.Surrogate(algoName)
	if err != nil {
		return nil, err
	}
	problems, err := h.Problems()
	if err != nil {
		return nil, err
	}
	var target loopnest.Problem
	found := false
	for _, p := range problems {
		if p.Algo.Name == algoName {
			target, found = p, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("experiments: no %s problem for the component ablation", algoName)
	}

	variants := []struct {
		name string
		s    search.Searcher
	}{
		{"MM (full)", search.MindMappings{Surrogate: sur}},
		{"MM no-injection", search.MindMappings{Surrogate: sur, NoInjection: true}},
		{"MM no-precondition", search.MindMappings{Surrogate: sur, NoPrecondition: true}},
		{"SA+f* (no gradients)", search.SurrogateSA{Surrogate: sur}},
		{"Beam", search.BeamSearch{}},
	}
	budget := search.Budget{MaxEvals: h.opts.IsoIterations}
	fmt.Fprintf(w, "== search-component ablation on %s (%d evals, %d repeats) ==\n",
		target.Name, budget.MaxEvals, h.opts.Repeats)
	var out []ComponentAblation
	for _, v := range variants {
		sum := 0.0
		for rep := 0; rep < h.opts.Repeats; rep++ {
			ctx, err := h.problemContext(target, 0, h.opts.Seed+int64(rep)*1000)
			if err != nil {
				return nil, err
			}
			res, err := v.s.Search(ctx, budget)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", v.name, err)
			}
			sum += res.BestEDP
		}
		row := ComponentAblation{Variant: v.name, EDP: sum / float64(h.opts.Repeats)}
		out = append(out, row)
		fmt.Fprintf(w, "%-22s %8.1fx minimum\n", row.Variant, row.EDP)
	}
	return out, nil
}

// TailBiasStudy is one row of the sampling ablation.
type TailBiasStudy struct {
	TailBias  float64
	Corr      float64
	SearchEDP float64
}

// TailBiasAblation compares surrogates trained on pure uniform sampling
// (the paper's §4.1.1 default, which its 10M-sample scale makes sufficient)
// against tail-enriched sampling (this repo's laptop-scale substitute;
// DESIGN.md §4), measured by prediction correlation and the search quality
// the resulting surrogate delivers.
func (h *Harness) TailBiasAblation(w io.Writer, algoName string) ([]TailBiasStudy, error) {
	algo, a, cfg, err := h.algoFor(algoName)
	if err != nil {
		return nil, err
	}
	problems, err := h.Problems()
	if err != nil {
		return nil, err
	}
	var target loopnest.Problem
	found := false
	for _, p := range problems {
		if p.Algo.Name == algoName {
			target, found = p, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("experiments: no %s problem for the tail-bias ablation", algoName)
	}

	fmt.Fprintf(w, "== sampling ablation (%s): uniform vs tail-enriched training sets ==\n", algoName)
	var out []TailBiasStudy
	for _, bias := range []float64{0, cfg.TailBias} {
		c := cfg
		c.TailBias = bias
		ds, err := surrogate.Generate(algo, a, c)
		if err != nil {
			return nil, err
		}
		sur, _, err := surrogate.Train(ds, c)
		if err != nil {
			return nil, err
		}
		_, corr, err := sur.EvaluateQuality(ds, 2000)
		if err != nil {
			return nil, err
		}
		ctx, err := h.problemContext(target, 0, h.opts.Seed+13)
		if err != nil {
			return nil, err
		}
		res, err := search.MindMappings{Surrogate: sur}.Search(ctx, search.Budget{MaxEvals: h.opts.IsoIterations})
		if err != nil {
			return nil, err
		}
		row := TailBiasStudy{TailBias: bias, Corr: corr, SearchEDP: res.BestEDP}
		out = append(out, row)
		fmt.Fprintf(w, "tailBias=%.1f  corr=%.3f  searchEDP=%.1f\n", row.TailBias, row.Corr, row.SearchEDP)
	}
	return out, nil
}

// GeneralityResult compares MM and SA on a different accelerator.
type GeneralityResult struct {
	ArchName string
	MMEDP    float64
	SAEDP    float64
}

// ArchGenerality retrains Phase 1 for a deployment-constrained edge
// accelerator (64 PEs, quarter-size buffers) and reruns the search
// comparison there — the §5.4.3 generality claim ("Mind Mappings
// generalizes over different algorithms, architectures, and target
// problems") exercised on a second architecture with zero code changes.
func (h *Harness) ArchGenerality(w io.Writer) (*GeneralityResult, error) {
	algo, err := loopnest.AlgorithmByName("cnn-layer")
	if err != nil {
		return nil, err
	}
	a := arch.Edge(2)
	cfg := h.opts.CNNSurrogate
	ds, err := surrogate.Generate(algo, a, cfg)
	if err != nil {
		return nil, err
	}
	sur, _, err := surrogate.Train(ds, cfg)
	if err != nil {
		return nil, err
	}

	prob, err := loopnest.NewCNNProblem("ResNet_Conv_4", 16, 256, 256, 14, 14, 3, 3)
	if err != nil {
		return nil, err
	}
	sctx, err := search.NewContext(h.opts.CostModel, a, prob)
	if err != nil {
		return nil, err
	}
	sctx.Seed = h.opts.Seed
	budget := search.Budget{MaxEvals: h.opts.IsoIterations}

	mmRes, err := search.MindMappings{Surrogate: sur}.Search(sctx, budget)
	if err != nil {
		return nil, err
	}
	saRes, err := search.SimulatedAnnealing{}.Search(sctx, budget)
	if err != nil {
		return nil, err
	}
	res := &GeneralityResult{ArchName: a.Name, MMEDP: mmRes.BestEDP, SAEDP: saRes.BestEDP}
	fmt.Fprintf(w, "== architecture generality: %s (%d PEs, %d KB shared) ==\n",
		a.Name, a.NumPEs, a.L2Bytes/1024)
	fmt.Fprintf(w, "MM %.1fx minimum, SA %.1fx minimum on %s\n", res.MMEDP, res.SAEDP, prob.Name)
	return res, nil
}
