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
	target, err := h.problemFor(algoName)
	if err != nil {
		return nil, err
	}

	budget := search.Budget{MaxEvals: h.opts.IsoIterations}
	var cells []cell
	for _, c := range []cell{
		{label: "MM (full)", searcher: search.MindMappings{Surrogate: sur}},
		{label: "MM no-injection", searcher: search.MindMappings{Surrogate: sur, NoInjection: true}},
		{label: "MM no-precondition", searcher: search.MindMappings{Surrogate: sur, NoPrecondition: true}},
		{label: "SA+f* (no gradients)", searcher: search.SurrogateSA{Surrogate: sur}},
		{label: "Beam", searcher: search.BeamSearch{}},
	} {
		c.prob, c.budget = target, budget
		cells = append(cells, h.repeats(c)...)
	}
	rows, err := h.run(cells, nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "== search-component ablation on %s (%d evals, %d repeats) ==\n",
		target.Name, budget.MaxEvals, h.opts.Repeats)
	var out []ComponentAblation
	for i := 0; i < len(rows); i += h.opts.Repeats {
		row := ComponentAblation{Variant: cells[i].label, EDP: meanEDP(rows[i : i+h.opts.Repeats])}
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
	target, err := h.problemFor(algoName)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "== sampling ablation (%s): uniform vs tail-enriched training sets ==\n", algoName)
	var out []TailBiasStudy
	for _, bias := range []float64{0, cfg.TailBias} {
		var ds *surrogate.RawDataset
		var sur *surrogate.Surrogate
		if bias == cfg.TailBias { // the harness's own dataset and model
			if ds, err = h.Dataset(algoName); err == nil {
				sur, err = h.Surrogate(algoName)
			}
		} else {
			c := cfg
			c.TailBias = bias
			if ds, err = surrogate.Generate(algo, a, c); err == nil {
				sur, _, err = surrogate.Train(ds, c)
			}
		}
		if err != nil {
			return nil, err
		}
		_, corr, err := sur.EvaluateQuality(ds, 2000)
		if err != nil {
			return nil, err
		}
		rows, err := h.run([]cell{{prob: target, searcher: search.MindMappings{Surrogate: sur},
			label: fmt.Sprintf("MM (tailBias=%.1f)", bias), seed: h.opts.Seed + 13,
			budget: search.Budget{MaxEvals: h.opts.IsoIterations}}}, nil)
		if err != nil {
			return nil, err
		}
		row := TailBiasStudy{TailBias: bias, Corr: corr, SearchEDP: rows[0].BestEDP}
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
	budget := search.Budget{MaxEvals: h.opts.IsoIterations}
	rows, err := h.run([]cell{
		{prob: prob, searcher: search.MindMappings{Surrogate: sur}, seed: h.opts.Seed, budget: budget, arch: a},
		{prob: prob, searcher: search.SimulatedAnnealing{}, seed: h.opts.Seed, budget: budget, arch: a},
	}, nil)
	if err != nil {
		return nil, err
	}
	res := &GeneralityResult{ArchName: a.Name, MMEDP: rows[0].BestEDP, SAEDP: rows[1].BestEDP}
	fmt.Fprintf(w, "== architecture generality: %s (%d PEs, %d KB shared) ==\n",
		a.Name, a.NumPEs, a.L2Bytes/1024)
	fmt.Fprintf(w, "MM %.1fx minimum, SA %.1fx minimum on %s\n", res.MMEDP, res.SAEDP, prob.Name)
	return res, nil
}
