package search

import (
	"fmt"
	"math"
	"math/rand"

	"mindmappings/internal/mapspace"
	"mindmappings/internal/mat"
	"mindmappings/internal/nn"
	"mindmappings/internal/stats"
)

// RL is the reinforcement-learning baseline (paper Appendix A): DDPG with
// an actor-critic pair of fully connected networks, a replay buffer, and
// soft target updates, following the HAQ-derived setup the paper used. The
// mapping is the MDP state (encoded vector), an action is a bounded
// perturbation of that vector, and the reward is the negative log
// normalized EDP of the projected result.
type RL struct {
	// Hidden is the width of the two hidden layers of actor and critic.
	// The paper uses 300 ("approximated with two fully-connected DNNs with
	// 300 neurons"), which 0 selects; experiments on small budgets may
	// shrink it.
	Hidden int
}

// The DDPG settings. The Adam learning rates are DDPG's (Lillicrap et
// al.: 1e-4 actor, 1e-3 critic) and the soft target-update rate is the
// HAQ setup's 0.01; the paper fixes no others, so the rest are this
// implementation's choices.
const (
	// rlEpisodeLen is the number of steps before the environment resets
	// to a fresh random mapping.
	rlEpisodeLen = 10
	// rlBatchSize is the replay mini-batch; training starts once
	// rlWarmup transitions are buffered.
	rlBatchSize = 32
	rlWarmup    = 2 * rlBatchSize
	// rlGamma is the discount factor and rlTau the soft target-update
	// rate.
	rlGamma = 0.9
	rlTau   = 0.01
	// rlActorLR and rlCriticLR are the Adam learning rates.
	rlActorLR  = 1e-4
	rlCriticLR = 1e-3
	// rlNoiseStd is the initial exploration noise, decayed linearly to
	// rlNoiseEnd over the budget.
	rlNoiseStd = 0.4
	rlNoiseEnd = 0.05
	// rlActionScale converts the tanh-bounded action into encoded-vector
	// units: about 1.5 octaves of tile-factor change.
	rlActionScale = 1.5
	// rlBufferCap bounds the replay buffer.
	rlBufferCap = 4096
)

// Name implements Searcher.
func (RL) Name() string { return "RL" }

type transition struct {
	state  []float64
	action []float64
	reward float64
	next   []float64
}

// ddpg bundles the learner state.
type ddpg struct {
	rng          *rand.Rand
	stateNorm    *stats.Normalizer
	actor        *nn.MLP
	critic       *nn.MLP
	actorTarget  *nn.MLP
	criticTarget *nn.MLP
	actorOpt     *nn.Adam
	criticOpt    *nn.Adam
	actorWS      *nn.Workspace
	criticWS     *nn.Workspace
	targetAWS    *nn.Workspace
	targetCWS    *nn.Workspace
	actorGrads   *nn.Grads
	criticGrads  *nn.Grads
	// Replay mini-batch buffers, rlBatchSize rows each: the drawn buffer
	// indices, states (next states for the critic step), critic inputs
	// (state, action), the critic's loss gradient, the critic's unit
	// output gradient for the actor step and the actor's output gradient.
	picks      [rlBatchSize]int
	states     *mat.Dense
	cin        *mat.Dense
	dq         *mat.Dense
	ones       *mat.Dense
	dActor     *mat.Dense
	buffer     []transition
	bufferNext int
	stateDim   int
	actionDim  int
}

// Search implements Searcher.
func (r RL) Search(ctx *Context, budget Budget) (Result, error) {
	if err := ctx.validate(); err != nil {
		return Result{}, err
	}
	if err := budget.validate(); err != nil {
		return Result{}, err
	}
	hidden := r.Hidden
	if hidden <= 0 {
		hidden = 300
	}
	rng := stats.NewRNG(ctx.Seed + 401)

	dim := ctx.Space.VectorLen()
	agent, err := newDDPG(hidden, dim, rng, ctx.Space)
	if err != nil {
		return Result{}, err
	}

	t := newTracker(ctx, budget)
	for !t.exhausted() {
		// Reset: fresh random mapping starts each episode.
		cur := ctx.Space.Random(rng)
		curEDP, err := t.payEval(&cur)
		if err != nil {
			return Result{}, err
		}
		for step := 0; step < rlEpisodeLen && !t.exhausted(); step++ {
			state := agent.observe(ctx.Space.Encode(&cur))
			action := agent.act(state, agent.noise(t.progress(t.clock())))
			next, err := agent.applyAction(ctx.Space, &cur, action)
			if err != nil {
				return Result{}, err
			}
			nextEDP, err := t.payEval(&next)
			if err != nil {
				return Result{}, err
			}
			reward := rewardFor(nextEDP, curEDP)
			nextState := agent.observe(ctx.Space.Encode(&next))
			agent.remember(transition{state, action, reward, nextState})
			agent.train()
			cur, curEDP = next, nextEDP
		}
	}
	return t.result(r.Name()), nil
}

// rewardFor shapes the reward: improvement in log10 EDP plus a small
// absolute-quality term so good absolute states are preferred.
func rewardFor(nextEDP, curEDP float64) float64 {
	improve := math.Log10(math.Max(curEDP, 1e-9)) - math.Log10(math.Max(nextEDP, 1e-9))
	quality := -math.Log10(math.Max(nextEDP, 1e-9)) * 0.1
	return improve + quality
}

func newDDPG(hidden, dim int, rng *rand.Rand, space *mapspace.Space) (*ddpg, error) {
	d := &ddpg{rng: rng, stateDim: dim, actionDim: dim}
	// Fit the state whitener on free samples (encoding costs nothing).
	sample := make([][]float64, 0, 256)
	for i := 0; i < 256; i++ {
		m := space.Random(rng)
		sample = append(sample, space.Encode(&m))
	}
	var err error
	d.stateNorm, err = stats.FitNormalizer(sample)
	if err != nil {
		return nil, fmt.Errorf("search: rl state normalizer: %w", err)
	}
	d.actor, err = nn.NewMLP([]int{dim, hidden, hidden, dim}, rng)
	if err != nil {
		return nil, err
	}
	d.critic, err = nn.NewMLP([]int{2 * dim, hidden, hidden, 1}, rng)
	if err != nil {
		return nil, err
	}
	d.actorTarget = d.actor.Clone()
	d.criticTarget = d.critic.Clone()
	d.actorOpt = nn.NewAdam(rlActorLR)
	d.criticOpt = nn.NewAdam(rlCriticLR)
	d.actorWS = d.actor.NewWorkspace()
	d.criticWS = d.critic.NewWorkspace()
	d.targetAWS = d.actorTarget.NewWorkspace()
	d.targetCWS = d.criticTarget.NewWorkspace()
	d.actorGrads = d.actor.NewGrads()
	d.criticGrads = d.critic.NewGrads()
	d.states = mat.NewDense(rlBatchSize, dim)
	d.cin = mat.NewDense(rlBatchSize, 2*dim)
	d.dq = mat.NewDense(rlBatchSize, 1)
	d.ones = mat.NewDense(rlBatchSize, 1)
	for i := range d.ones.Data {
		d.ones.Data[i] = 1
	}
	d.dActor = mat.NewDense(rlBatchSize, dim)
	return d, nil
}

// observe whitens a raw encoded mapping vector into the agent's state.
func (d *ddpg) observe(raw []float64) []float64 {
	return d.stateNorm.Applied(raw)
}

// noise returns the exploration noise level for the given budget progress.
func (d *ddpg) noise(progress float64) float64 {
	return rlNoiseStd*(1-progress) + rlNoiseEnd*progress
}

// act runs the deterministic policy plus exploration noise, returning a
// tanh-bounded action.
func (d *ddpg) act(state []float64, noise float64) []float64 {
	x := mat.Dense{Rows: 1, Cols: len(state), Data: state}
	out := d.actor.ForwardBatch(d.actorWS, &x)
	action := make([]float64, out.Cols)
	for i, v := range out.Data {
		action[i] = math.Tanh(v + d.rng.NormFloat64()*noise)
	}
	return action
}

// applyAction moves the mapping by the scaled action in encoded space and
// projects back onto the valid map space.
func (d *ddpg) applyAction(space *mapspace.Space, cur *mapspace.Mapping, action []float64) (mapspace.Mapping, error) {
	vec := space.Encode(cur)
	for i := range vec {
		vec[i] += rlActionScale * action[i]
	}
	return space.Decode(vec)
}

func (d *ddpg) remember(tr transition) {
	if len(d.buffer) < rlBufferCap {
		d.buffer = append(d.buffer, tr)
		return
	}
	d.buffer[d.bufferNext] = tr
	d.bufferNext = (d.bufferNext + 1) % rlBufferCap
}

// train performs one DDPG update (critic TD step, actor policy-gradient
// step, soft target updates) on replay mini-batches, each run through the
// networks as one rlBatchSize-row batch.
func (d *ddpg) train() {
	if len(d.buffer) < rlWarmup {
		return
	}
	sd := d.stateDim

	// Critic update: TD targets from the target networks, then one step
	// on 0.5*(Q(s,a)-y)^2.
	d.draw()
	for i, p := range d.picks {
		copy(d.states.Row(i), d.buffer[p].next)
	}
	ta := d.actorTarget.ForwardBatch(d.targetAWS, d.states)
	for i := range d.picks {
		row := d.cin.Row(i)
		copy(row[:sd], d.states.Row(i))
		for j, v := range ta.Row(i) {
			row[sd+j] = math.Tanh(v)
		}
	}
	tq := d.criticTarget.ForwardBatch(d.targetCWS, d.cin)
	for i, p := range d.picks {
		tr := &d.buffer[p]
		d.dq.Data[i] = tr.reward + rlGamma*tq.Data[i] // the TD target y
		row := d.cin.Row(i)
		copy(row[:sd], tr.state)
		copy(row[sd:], tr.action)
	}
	q := d.critic.ForwardBatch(d.criticWS, d.cin)
	for i, v := range q.Data {
		// d(0.5*(q-y)^2)/dq = q - y.
		d.dq.Data[i] = v - d.dq.Data[i]
	}
	d.criticGrads.Zero()
	d.critic.BackwardBatch(d.criticWS, d.dq, d.criticGrads)
	d.criticGrads.Scale(1 / float64(rlBatchSize))
	d.criticGrads.ClipTo(1)
	d.criticOpt.Step(d.critic, d.criticGrads)

	// Actor update: ascend Q(s, tanh(actor(s))).
	d.draw()
	for i, p := range d.picks {
		copy(d.states.Row(i), d.buffer[p].state)
	}
	pre := d.actor.ForwardBatch(d.actorWS, d.states)
	for i := range d.picks {
		row := d.cin.Row(i)
		copy(row[:sd], d.states.Row(i))
		for j, v := range pre.Row(i) {
			row[sd+j] = math.Tanh(v)
		}
	}
	// The critic runs on its own workspace, so the actor's forward state
	// is still intact for the backward pass below.
	d.critic.ForwardBatch(d.criticWS, d.cin)
	dQdIn := d.critic.BackwardInputBatch(d.criticWS, d.ones)
	for i := range d.picks {
		act := d.cin.Row(i)[sd:]
		dq := dQdIn.Row(i)[sd:]
		for j, a := range act {
			// Chain through tanh; negate to turn ascent into descent.
			d.dActor.Row(i)[j] = -dq[j] * (1 - a*a)
		}
	}
	d.actorGrads.Zero()
	d.actor.BackwardBatch(d.actorWS, d.dActor, d.actorGrads)
	d.actorGrads.Scale(1 / float64(rlBatchSize))
	d.actorGrads.ClipTo(1)
	d.actorOpt.Step(d.actor, d.actorGrads)

	softUpdate(d.actorTarget, d.actor, rlTau)
	softUpdate(d.criticTarget, d.critic, rlTau)
}

// draw picks a replay mini-batch: rlBatchSize buffer indices, uniformly
// with replacement.
func (d *ddpg) draw() {
	for i := range d.picks {
		d.picks[i] = d.rng.Intn(len(d.buffer))
	}
}

// softUpdate blends source parameters into the target network:
// target = tau*src + (1-tau)*target.
func softUpdate(target, src *nn.MLP, tau float64) {
	for i := range src.Layers {
		tw, sw := target.Layers[i].W.Data, src.Layers[i].W.Data
		for j := range sw {
			tw[j] = tau*sw[j] + (1-tau)*tw[j]
		}
		tb, sb := target.Layers[i].B, src.Layers[i].B
		for j := range sb {
			tb[j] = tau*sb[j] + (1-tau)*tb[j]
		}
	}
}
