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
	// Queries, when non-nil, routes the surrogate queries (the
	// per-iteration one-row GradientBatch and the injection's two-row
	// PredictBatch) through a wrapper around the surrogate, such as a timer
	// that measures query cost. Results are identical either way. Nil
	// queries the Surrogate directly.
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
// loop position, the annealing schedule, and the chain's current mapping.
// Together with the tracker state and the RNG stream position it pins the
// run exactly — a resume replays the identical iteration sequence.
type mmState struct {
	// Iter is the loop iteration the resumed run re-enters (the snapshot is
	// taken at the end of iteration Iter-1).
	Iter       int     `json:"iter"`
	Temp       float64 `json:"temp"`
	Injections int     `json:"injections"`
	// Chains holds the current mapping as a one-element array, the layout
	// journaled checkpoints already use; any other length is rejected.
	Chains []mapspace.Mapping `json:"chains"`
}

// Search implements Searcher.
func (m MindMappings) Search(ctx *Context, budget Budget) (Result, error) {
	t, err := newTracker(ctx, budget)
	if err != nil {
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
	eExp, dExp := objectiveExponents(ctx.Objective)

	// Step 1 (§4.2): random valid initial mapping.
	var cur mapspace.Mapping
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
		if len(st.Chains) != 1 {
			return Result{}, fmt.Errorf("search: checkpoint has %d chains, want 1", len(st.Chains))
		}
		// A checkpoint written before the workload or space changed can
		// hold mappings of the wrong shape; encoding one would panic.
		if b := ctx.Resume.Best; b != nil {
			if err := ctx.Space.IsMember(b); err != nil {
				return Result{}, fmt.Errorf("search: checkpoint best mapping: %w", err)
			}
		}
		if err := ctx.Space.IsMember(&st.Chains[0]); err != nil {
			return Result{}, fmt.Errorf("search: checkpoint chain 0: %w", err)
		}
		t.restore(ctx.Resume)
		cur = st.Chains[0].Clone()
		temp = st.Temp
		injections = st.Injections
		startIter = st.Iter
		src.Skip(ctx.Resume.RNGDraws)
	} else {
		cur = ctx.Space.Random(rng)
		if ctx.SeedMapping != nil {
			// Warm start: begin at the supplied mapping (repaired into this
			// space). The random draw above happens regardless, so the RNG
			// stream position — and therefore checkpoint/resume
			// reproducibility — is independent of seeding.
			cur = ctx.Space.Repair(ctx.SeedMapping.Clone())
		}
	}

	// Reused per-iteration buffers (the encoded vector, gradient, descent
	// step and the injection's two encoded rows) so the steady-state loop
	// allocates only for injected random candidates.
	vecs := make([][]float64, 1)
	var vals, preds []float64
	var grads [][]float64
	var step []float64
	injEnc := make([][]float64, 2)

	// checkpoint snapshots the run as "about to start iteration iter":
	// exactly the state the resume path above re-enters.
	checkpoint := func(iter int) error {
		return t.emitCheckpoint(m.Name(), src.Draws(),
			&mmState{Iter: iter, Temp: temp, Injections: injections, Chains: []mapspace.Mapping{cur}})
	}

	iter := startIter
	complete := true
	for ; !t.exhausted(); iter++ {
		vecs[0] = ctx.Space.EncodeInto(vecs[0], &cur)

		// Steps 2-3: forward + backward through the surrogate for the
		// predicted cost and its gradient with respect to the mapping.
		var err error
		if vals, grads, err = queries.GradientBatch(vecs, eExp, dExp, vals, grads); err != nil {
			return Result{}, err
		}
		vec, grad := vecs[0], grads[0]

		// Step 4: descend. The step is preconditioned by the squared
		// per-coordinate input deviation (equivalent to taking the step in
		// the surrogate's whitened input space) and normalized to a fixed
		// length: the raw EDP gradient magnitude spans orders of magnitude
		// across the space, but only its direction matters for descent.
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

		// Step 5: project onto the valid map space, over the previous
		// mapping.
		if err := ctx.Space.DecodeInto(vec, &cur); err != nil {
			return Result{}, err
		}

		// Budget accounting: one surrogate query per iteration; the
		// trajectory is scored with the true cost model offline.
		if _, err := t.scoreSurrogateStep(&cur); err != nil {
			return Result{}, err
		}
		if ctx.canceled() {
			// Cancelled mid-iteration: the scoring may be partial, so this
			// is not a re-enterable boundary — the last periodic checkpoint
			// stands as the resume point.
			complete = false
			break
		}

		// Step 6: periodic random injection with annealed acceptance. The
		// candidate and the current mapping are predicted as one two-row
		// surrogate batch.
		if !m.NoInjection && iter%mmInjectEvery == 0 && !t.exhausted() {
			cand := ctx.Space.Random(rng)
			u := rng.Float64()
			injEnc[0] = ctx.Space.EncodeInto(injEnc[0], &cand)
			injEnc[1] = ctx.Space.EncodeInto(injEnc[1], &cur)
			if preds, err = queries.PredictBatch(injEnc, eExp, dExp, preds); err != nil {
				return Result{}, err
			}
			if acceptInjection(preds[0]-preds[1], temp, u) {
				cur = cand
			}
			injections++
			if injections%mmDecayEvery == 0 {
				temp *= mmTempDecay
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
// surrogate's predictors.
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
// function of §4.2 for a surrogate-predicted cost change delta =
// cost_rand - cost_cur and a uniform draw u in [0, 1): always accept a
// better mapping, otherwise accept with probability exp(-delta/T). At
// T = 0 only improvements are accepted.
func acceptInjection(delta, temp, u float64) bool {
	return delta <= 0 || (temp > 0 && u < math.Exp(-delta/temp))
}
