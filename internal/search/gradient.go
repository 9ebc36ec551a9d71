package search

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mindmappings/internal/mapspace"
	"mindmappings/internal/stats"
	"mindmappings/internal/surrogate"
)

// MindMappings is the paper's Phase-2 gradient-based search (§4.2,
// Appendix A): projected gradient descent on the trained differentiable
// surrogate, with periodic random injections accepted under a simulated-
// annealing criterion to escape local minima.
//
// Per iteration: derive ∇f* at the current encoded mapping by
// back-propagating through the frozen surrogate, step against the
// gradient, and project the result onto the nearest valid mapping
// (rounding plus nearest-neighbor validity repair). Every mmInjectEvery
// iterations a random valid mapping may replace the current one, with
// acceptance probability annealed over time.
type MindMappings struct {
	// Surrogate is the trained Phase-1 model. Required.
	Surrogate *surrogate.Surrogate
	// NoInjection disables the §4.2 random-injection loop (ablation knob:
	// pure projected gradient descent).
	NoInjection bool
	// NoPrecondition disables the variance preconditioning of descent
	// steps (ablation knob: raw-gradient direction).
	NoPrecondition bool
	// Chains is the number of independent gradient-descent chains run in
	// lockstep. Each lockstep iteration batches the surrogate
	// gradient queries of all chains into one GEMM pass (GradientBatch)
	// and scores all chains' candidates as one tracker batch, charging
	// Chains evaluations — so a fixed budget buys Chains× fewer
	// iterations of Chains× more exploration, at a much lower per-query
	// cost. 0 or 1 reproduces the paper's single-chain search exactly.
	Chains int
	// Queries, when non-nil, routes the batched surrogate queries (the
	// per-iteration GradientBatch and the injection PredictBatch) through
	// a wrapper around the surrogate, such as a timer that measures query
	// cost. Results are identical either way. Nil queries the Surrogate
	// directly. The scalar ablation path (Context.Scalar) always queries
	// the Surrogate.
	Queries SurrogateQuerier
}

// Name implements Searcher.
func (MindMappings) Name() string { return "MM" }

// The Mind Mappings search settings (paper Appendix A).
const (
	// mmStepLen is the L2 length of each descent step, measured in the
	// surrogate's whitened input space: the paper's learning rate of 1,
	// with no decay, times a step norm of 3 chosen by the same kind of
	// grid search the paper used for its learning rate. Steps are
	// preconditioned by the per-coordinate input variance, so
	// heterogeneous encoding coordinates (log tile factors, order ranks,
	// allocation fractions) move commensurately, then normalized to this
	// length.
	mmStepLen = 3
	// mmInjectEvery is the random-injection interval in iterations
	// (paper: 10).
	mmInjectEvery = 10
	// mmInitTemp is the initial injection-acceptance temperature
	// (paper: 50), multiplied by mmTempDecay every mmDecayEvery
	// injections (paper: 0.75 every 50).
	mmInitTemp   = 50.0
	mmTempDecay  = 0.75
	mmDecayEvery = 50
)

// mmState is the searcher-private half of a Mind Mappings checkpoint: the
// loop position, the annealing schedule, and each chain's current mapping.
// Together with the tracker state and the RNG stream position it pins the
// run exactly — a resume replays the identical iteration sequence.
type mmState struct {
	// Iter is the loop iteration the resumed run re-enters (the snapshot is
	// taken at the end of iteration Iter-1).
	Iter       int                `json:"iter"`
	Temp       float64            `json:"temp"`
	Injections int                `json:"injections"`
	Chains     []mapspace.Mapping `json:"chains"`
}

// Search implements Searcher.
func (m MindMappings) Search(ctx *Context, budget Budget) (Result, error) {
	if err := ctx.validate(); err != nil {
		return Result{}, err
	}
	if err := budget.validate(); err != nil {
		return Result{}, err
	}
	if m.Surrogate == nil {
		return Result{}, errors.New("search: MindMappings requires a trained surrogate")
	}
	sur := m.Surrogate
	if sur.Net.InDim() != ctx.Space.VectorLen() {
		return Result{}, errors.New("search: surrogate input width does not match this map space (was it trained for a different algorithm?)")
	}
	queries := SurrogateQuerier(sur)
	if m.Queries != nil {
		queries = m.Queries
	}

	// The RNG is built over a counted source so every draw is position-
	// tracked: checkpoints record (seed, draws) and a resume re-seeds and
	// skips back to the identical stream position. The wrapped stream is
	// bit-identical to the historical stats.NewRNG one.
	src := stats.NewCountedSource(ctx.Seed + 503)
	rng := rand.New(src)
	t := newTracker(ctx, budget)
	eExp, dExp := objectiveExponents(ctx.Objective)

	// Step 1 (§4.2): random valid initial mapping per chain. With
	// Chains == 1 everything below reduces exactly to the paper's
	// single-chain loop (the batched kernels are bit-identical to the
	// scalar ones, so even the arithmetic matches).
	chains := max(m.Chains, 1)
	curs := make([]mapspace.Mapping, chains)
	temp := mmInitTemp
	injections := 0
	startIter := 1
	if ctx.Resume != nil {
		if err := ctx.Resume.validateResume(m.Name()); err != nil {
			return Result{}, err
		}
		var st mmState
		if err := json.Unmarshal(ctx.Resume.State, &st); err != nil {
			return Result{}, fmt.Errorf("search: decoding MM checkpoint state: %w", err)
		}
		if len(st.Chains) != chains {
			return Result{}, fmt.Errorf("search: checkpoint has %d chains, searcher configured for %d", len(st.Chains), chains)
		}
		// A checkpoint written before the workload or space changed can
		// hold mappings of the wrong shape; encoding one would panic.
		if b := ctx.Resume.Best; b != nil {
			if err := ctx.Space.IsMember(b); err != nil {
				return Result{}, fmt.Errorf("search: checkpoint best mapping: %w", err)
			}
		}
		for i := range st.Chains {
			if err := ctx.Space.IsMember(&st.Chains[i]); err != nil {
				return Result{}, fmt.Errorf("search: checkpoint chain %d: %w", i, err)
			}
		}
		t.restore(ctx.Resume)
		for i := range curs {
			curs[i] = st.Chains[i].Clone()
		}
		temp = st.Temp
		injections = st.Injections
		startIter = st.Iter
		src.Skip(ctx.Resume.RNGDraws)
	} else {
		for i := range curs {
			curs[i] = ctx.Space.Random(rng)
		}
		if ctx.SeedMapping != nil {
			// Warm start: chain 0 begins at the supplied mapping (repaired
			// into this space) while the other chains keep their random
			// starts. The random draws above happen regardless, so the RNG
			// stream position — and therefore checkpoint/resume
			// reproducibility — is independent of seeding.
			curs[0] = ctx.Space.Repair(ctx.SeedMapping.Clone())
		}
	}

	// Reused per-iteration buffers (encoded vectors, gradients, descent
	// step, injection candidates) so the steady-state loop allocates only
	// for injected random candidates.
	vecs := make([][]float64, chains)
	var vals, scoreVals, preds []float64
	var grads [][]float64
	var step []float64
	injEnc := make([][]float64, 2*chains)
	injCands := make([]mapspace.Mapping, chains)
	injUs := make([]float64, chains)

	// checkpoint snapshots the run as "about to start iteration iter":
	// exactly the state the resume path above re-enters.
	checkpoint := func(iter int) error {
		return t.emitCheckpoint(m.Name(), src.Draws(),
			&mmState{Iter: iter, Temp: temp, Injections: injections, Chains: curs})
	}

	iter := startIter
	complete := true
	for ; !t.exhausted(); iter++ {
		for i := range curs {
			vecs[i] = ctx.Space.EncodeInto(vecs[i], &curs[i])
		}

		// Steps 2-3: forward + backward through the surrogate for the
		// predicted cost and its gradient with respect to each chain's
		// mapping — one batched GEMM pass across chains (or the scalar
		// per-chain path under ctx.Scalar; both produce identical bits).
		var err error
		if ctx.Scalar {
			if len(grads) != chains {
				grads = make([][]float64, chains)
			}
			for i := range vecs {
				if _, grads[i], err = sur.GradientScalar(vecs[i], eExp, dExp); err != nil {
					return Result{}, err
				}
			}
		} else if vals, grads, err = queries.GradientBatch(vecs, eExp, dExp, vals, grads); err != nil {
			return Result{}, err
		}

		for i := range curs {
			vec, grad := vecs[i], grads[i]
			// Step 4: descend. The step is preconditioned by the squared
			// per-coordinate input deviation (equivalent to taking the step
			// in the surrogate's whitened input space) and normalized to a
			// fixed length: the raw EDP gradient magnitude spans orders of
			// magnitude across the space, but only its direction matters
			// for descent.
			if cap(step) < len(grad) {
				step = make([]float64, len(grad))
			}
			step = step[:len(grad)]
			norm := 0.0
			for j, g := range grad {
				step[j] = g
				if !m.NoPrecondition {
					s := sur.InNorm.Std[j]
					step[j] *= s * s
				}
				norm += step[j] * step[j]
			}
			norm = math.Sqrt(norm)
			if norm > 1e-12 {
				scale := mmStepLen / norm
				for j := range vec {
					vec[j] -= scale * step[j]
				}
			}

			// Step 5: project onto the valid map space, over the chain's
			// previous mapping (no other chain or candidate shares it).
			if err := ctx.Space.DecodeInto(vec, &curs[i]); err != nil {
				return Result{}, err
			}
		}

		// Budget accounting: one surrogate query per chain per iteration;
		// trajectories scored with the true cost model offline, as one
		// batch (fanned across Context.Parallelism workers when set).
		if scoreVals, err = t.scoreSurrogateBatch(curs, scoreVals); err != nil {
			return Result{}, err
		}
		if ctx.canceled() {
			// Cancelled mid-iteration: the scoring batch may be partial, so
			// this is not a re-enterable boundary — the last periodic
			// checkpoint stands as the resume point.
			complete = false
			break
		}

		// Step 6: periodic random injection with annealed acceptance, per
		// chain. Candidate and acceptance draws happen chain-major so the
		// rng stream matches the scalar path; predictions for all (cand,
		// cur) pairs run as one surrogate batch.
		if !m.NoInjection && iter%mmInjectEvery == 0 && !t.exhausted() {
			for i := range curs {
				injCands[i] = ctx.Space.Random(rng)
				injUs[i] = rng.Float64()
			}
			if !ctx.Scalar {
				for i := range curs {
					injEnc[2*i] = ctx.Space.EncodeInto(injEnc[2*i], &injCands[i])
					injEnc[2*i+1] = ctx.Space.EncodeInto(injEnc[2*i+1], &curs[i])
				}
				if preds, err = queries.PredictBatch(injEnc, eExp, dExp, preds); err != nil {
					return Result{}, err
				}
			}
			for i := range curs {
				var accepted bool
				if ctx.Scalar {
					if accepted, err = acceptInjection(sur, ctx, &injCands[i], &curs[i], temp, injUs[i]); err != nil {
						return Result{}, err
					}
				} else {
					delta := preds[2*i] - preds[2*i+1]
					accepted = delta <= 0 || (temp > 0 && injUs[i] < math.Exp(-delta/temp))
				}
				if accepted {
					curs[i] = injCands[i]
				}
				injections++
				if injections%mmDecayEvery == 0 {
					temp *= mmTempDecay
				}
			}
		}

		// Snapshot at the iteration boundary when due: the state written is
		// exactly what re-entering the loop at iter+1 needs.
		if t.checkpointDue() {
			if err := checkpoint(iter + 1); err != nil {
				return Result{}, err
			}
		}
	}
	// A run cancelled between iterations (drain, deadline, client
	// disconnect) checkpoints once more at the exact stop point, so no
	// work since the periodic snapshot is lost; budget-exhausted runs are
	// finished and need no snapshot.
	if complete && ctx.canceled() && ctx.Checkpoint != nil {
		if err := checkpoint(iter); err != nil {
			return Result{}, err
		}
	}
	return t.result(m.Name()), nil
}

// objectiveExponents maps an Objective onto energy/delay exponents for the
// surrogate's scalar predictor.
func objectiveExponents(o Objective) (eExp, dExp float64) {
	switch o {
	case ObjectiveED2P:
		return 1, 2
	case ObjectiveEnergy:
		return 1, 0
	case ObjectiveDelay:
		return 0, 1
	default:
		return 1, 1
	}
}

// acceptInjection implements the accept(m_rand, m@t, T) probability
// function of §4.2: always accept a better (surrogate-predicted) mapping,
// otherwise accept with probability exp(-(cost_rand - cost_cur)/T).
func acceptInjection(sur *surrogate.Surrogate, ctx *Context, cand, cur *mapspace.Mapping, temp, u float64) (bool, error) {
	eExp, dExp := objectiveExponents(ctx.Objective)
	candCost, err := sur.PredictScalar(ctx.Space.Encode(cand), eExp, dExp)
	if err != nil {
		return false, err
	}
	curCost, err := sur.PredictScalar(ctx.Space.Encode(cur), eExp, dExp)
	if err != nil {
		return false, err
	}
	delta := candCost - curCost
	if delta <= 0 {
		return true, nil
	}
	if temp <= 0 {
		return false, nil
	}
	return u < math.Exp(-delta/temp), nil
}
