// Package core exposes the Mind Mappings framework API described in the
// paper's Appendix B: an optimization service for compilers and frameworks
// targeting a programmable accelerator. A Mapper is bound to one
// (algorithm, accelerator) pair; its surrogate is trained once offline
// (Phase 1) and then FindMapping returns low-cost mappings for any problem
// of the algorithm (Phase 2).
//
// The API surfaces the three routines the paper requires of a target:
// GetMapping (a random valid mapping), IsMember (validity check), and
// GetProjection (nearest valid mapping) — on a ProblemContext, which embeds
// the search.Context that search.NewContext builds for the problem — plus
// surrogate persistence and head-to-head method comparison used by the
// evaluation harness.
package core

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/nn"
	"mindmappings/internal/search"
	"mindmappings/internal/surrogate"
)

// Mapper is the Mind Mappings entry point for one algorithm-accelerator
// pair.
type Mapper struct {
	Algo *loopnest.Algorithm
	Arch arch.Spec
	// CostModel names the registered costmodel backend problem contexts
	// are built against (empty = costmodel.DefaultBackend, the reference
	// Timeloop-style model). The CLI's -model flag sets it; every searcher
	// and evaluation goes through the selected backend.
	CostModel string

	sur *surrogate.Surrogate
}

// NewMapper validates the pair and returns a Mapper with no surrogate yet
// (train one with TrainSurrogate or load one with LoadSurrogate).
func NewMapper(algo *loopnest.Algorithm, a arch.Spec) (*Mapper, error) {
	if algo == nil {
		return nil, errors.New("core: nil algorithm")
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if want := len(algo.Tensors) - 1; a.OperandsPerMAC != want {
		return nil, fmt.Errorf("core: accelerator consumes %d operands/MAC, algorithm %s needs %d",
			a.OperandsPerMAC, algo.Name, want)
	}
	return &Mapper{Algo: algo, Arch: a}, nil
}

// Surrogate returns the trained surrogate, or nil before Phase 1.
func (mp *Mapper) Surrogate() *surrogate.Surrogate { return mp.sur }

// TrainSurrogate runs Phase 1: generate the training set by uniform
// sampling across representative map spaces and fit the differentiable
// surrogate. Returns the loss history (Figure 7a data).
func (mp *Mapper) TrainSurrogate(cfg surrogate.Config) (*nn.History, error) {
	ds, err := surrogate.Generate(mp.Algo, mp.Arch, cfg)
	if err != nil {
		return nil, err
	}
	sur, hist, err := surrogate.Train(ds, cfg)
	if err != nil {
		return nil, err
	}
	mp.sur = sur
	return hist, nil
}

// LoadSurrogate installs a previously trained surrogate, rejecting ones
// trained for a different algorithm — by name, and by workload fingerprint
// when the file carries one, so a surrogate trained against one definition
// of a workload never drives searches for a reworked definition sharing
// the name.
func (mp *Mapper) LoadSurrogate(r io.Reader) error {
	sur, err := surrogate.Load(r)
	if err != nil {
		return err
	}
	if sur.AlgoName != mp.Algo.Name {
		return fmt.Errorf("core: surrogate was trained for %q, mapper targets %q",
			sur.AlgoName, mp.Algo.Name)
	}
	if sur.AlgoFP != "" && sur.AlgoFP != mp.Algo.Fingerprint() {
		return fmt.Errorf("core: surrogate was trained for workload %q with fingerprint %.12s…, the mapper's definition has %.12s… (the workload changed since training)",
			sur.AlgoName, sur.AlgoFP, mp.Algo.Fingerprint())
	}
	mp.sur = sur
	return nil
}

// SaveSurrogate persists the trained surrogate.
func (mp *Mapper) SaveSurrogate(w io.Writer) error {
	if mp.sur == nil {
		return errors.New("core: no surrogate trained")
	}
	return mp.sur.Save(w)
}

// ProblemContext is the per-problem object of the paper's Appendix-B API:
// the map space (with GetMapping, IsMember and GetProjection), the cost
// model and its normalization bound, plus the search knobs (Objective,
// QueryLatency, Ctx, Progress, SeedMapping, ...) applied to every search
// run through it. It embeds search.Context; each search gets a copy with
// only the seed set, so searches run at once share its cost model.
type ProblemContext struct {
	search.Context
}

// NewProblemContext builds the per-problem machinery for any problem of
// the mapper's algorithm, evaluating against the mapper's selected
// costmodel backend.
func (mp *Mapper) NewProblemContext(p loopnest.Problem) (*ProblemContext, error) {
	if p.Algo == nil || p.Algo.Name != mp.Algo.Name {
		return nil, fmt.Errorf("core: problem %q does not belong to algorithm %q", p.Name, mp.Algo.Name)
	}
	sctx, err := search.NewContext(mp.CostModel, mp.Arch, p)
	if err != nil {
		return nil, err
	}
	return &ProblemContext{Context: *sctx}, nil
}

// GetMapping returns a uniformly sampled valid mapping (the paper's
// getMapping routine).
func (pc *ProblemContext) GetMapping(rng *rand.Rand) mapspace.Mapping {
	return pc.Space.Random(rng)
}

// IsMember reports whether m is a valid mapping for the problem (the
// paper's isMember routine); a nil error means valid.
func (pc *ProblemContext) IsMember(m *mapspace.Mapping) error {
	return pc.Space.IsMember(m)
}

// GetProjection returns the nearest valid mapping to m (the paper's
// getProjection routine).
func (pc *ProblemContext) GetProjection(m mapspace.Mapping) mapspace.Mapping {
	return pc.Space.Project(m)
}

// Evaluate runs the context's cost model on a mapping and reports the
// cost with EDP normalized to the algorithmic minimum.
func (pc *ProblemContext) Evaluate(m *mapspace.Mapping) (costmodel.Cost, float64, error) {
	cost, err := costmodel.Evaluate(nil, pc.Model, m)
	if err != nil {
		return costmodel.Cost{}, 0, err
	}
	return cost, pc.Bound.NormalizeEDP(cost.EDP), nil
}

// searchContext copies the ProblemContext's search context for one run
// with the given seed.
func (pc *ProblemContext) searchContext(seed int64) *search.Context {
	c := pc.Context
	c.Seed = seed
	return &c
}

// FindMapping runs Phase 2 — the gradient-based search on the trained
// surrogate — for the given problem and budget, returning the search
// result (best mapping, normalized EDP, best-so-far trajectory).
func (mp *Mapper) FindMapping(pc *ProblemContext, budget search.Budget, seed int64) (search.Result, error) {
	if mp.sur == nil {
		return search.Result{}, errors.New("core: train or load a surrogate before searching (Phase 1 precedes Phase 2)")
	}
	mm := search.MindMappings{Surrogate: mp.sur}
	return mm.Search(pc.searchContext(seed), budget)
}

// SearchWith runs an arbitrary search method (one of the paper's baselines
// or Mind Mappings itself) under the same budget accounting.
func (mp *Mapper) SearchWith(s search.Searcher, pc *ProblemContext, budget search.Budget, seed int64) (search.Result, error) {
	return s.Search(pc.searchContext(seed), budget)
}

// Baselines returns the paper's comparison methods (§5.2) configured with
// Appendix-A hyper-parameters: SA, GA, RL, and random search. rlHidden
// overrides the RL network width (the paper's 300 is expensive on a single
// CPU core; pass 0 to keep 300).
func Baselines(rlHidden int) []search.Searcher {
	return []search.Searcher{
		search.SimulatedAnnealing{},
		search.GeneticAlgorithm{},
		search.RL{Hidden: rlHidden},
		search.RandomSearch{},
	}
}

// MindMappingsSearcher returns the Phase-2 searcher for this mapper's
// surrogate, for use with SearchWith.
func (mp *Mapper) MindMappingsSearcher() (search.Searcher, error) {
	if mp.sur == nil {
		return nil, errors.New("core: no surrogate trained")
	}
	return search.MindMappings{Surrogate: mp.sur}, nil
}
