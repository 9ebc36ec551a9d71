package search

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"mindmappings/internal/mapspace"
)

// Checkpoint is a resumable snapshot of an in-flight search: the tracker's
// budget and best-so-far state plus the searcher's own private state. It is
// JSON-serializable end to end (mapspace.Mapping marshals directly), so the
// service can journal snapshots to disk and resume a killed job in a fresh
// process with a bit-compatible trajectory suffix.
//
// A checkpoint is only ever taken at an iteration boundary the emitting
// searcher knows how to re-enter; Resume with a checkpoint from a different
// method (or a searcher that never emits one) is an error.
type Checkpoint struct {
	// Method is the emitting searcher's Name(); Resume refuses mismatches.
	Method string `json:"method"`
	// Eval and Elapsed are the budget consumed so far; a resumed run
	// continues the count (MaxEvals) and the clock (MaxTime) rather than
	// restarting them.
	Eval    int           `json:"eval"`
	Elapsed time.Duration `json:"elapsed_ns"`
	// BestEDP and Best are the best-so-far value and mapping. BestEDP is
	// stored as a string ("+Inf" is not representable in JSON numbers and a
	// checkpoint before the first completed evaluation legitimately has it).
	BestEDP   jsonFloat         `json:"best_edp"`
	Best      *mapspace.Mapping `json:"best,omitempty"`
	SinceBest int               `json:"since_best"`
	// Trajectory is the recorded best-so-far history up to the snapshot.
	Trajectory []Sample `json:"trajectory,omitempty"`
	// RNGDraws is the searcher's RNG stream position: the number of draws
	// consumed from its seeded source (see stats.CountedSource). The seed
	// itself comes from the resuming Context, which must match the
	// original's.
	RNGDraws int64 `json:"rng_draws"`
	// State is the searcher-specific snapshot (for Mind Mappings: iteration
	// number, chain positions, annealing temperature).
	State json.RawMessage `json:"state,omitempty"`
}

// jsonFloat is a float64 that survives JSON round-trips of ±Inf and NaN by
// falling back to string encoding for the non-finite values.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 1) {
		return []byte(`"+Inf"`), nil
	}
	if math.IsInf(v, -1) {
		return []byte(`"-Inf"`), nil
	}
	if math.IsNaN(v) {
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

func (f *jsonFloat) UnmarshalJSON(raw []byte) error {
	var v float64
	if err := json.Unmarshal(raw, &v); err == nil {
		*f = jsonFloat(v)
		return nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return err
	}
	switch s {
	case "+Inf", "Inf":
		*f = jsonFloat(math.Inf(1))
	case "-Inf":
		*f = jsonFloat(math.Inf(-1))
	case "NaN":
		*f = jsonFloat(math.NaN())
	default:
		return fmt.Errorf("search: bad checkpoint float %q", s)
	}
	return nil
}

// validateResume checks a checkpoint against the resuming searcher.
func (c *Checkpoint) validateResume(method string) error {
	if c.Method != method {
		return fmt.Errorf("search: checkpoint from method %q cannot resume %q", c.Method, method)
	}
	if c.Eval < 0 || c.RNGDraws < 0 || c.Elapsed < 0 {
		return errors.New("search: corrupt checkpoint (negative position)")
	}
	return nil
}

// checkpointDue reports whether a snapshot should be emitted at the current
// eval count: the hook is installed and CheckpointEvery evals have passed
// since the last emission (or since the run/resume point).
func (t *tracker) checkpointDue() bool {
	if t.ctx.Checkpoint == nil {
		return false
	}
	every := t.ctx.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	return t.evals-t.lastCheckpoint >= every
}

// DefaultCheckpointEvery is the eval interval between snapshots when the
// Context installs a Checkpoint hook without choosing one. Snapshots cost a
// deep copy of the trajectory plus whatever the hook does (the service
// writes a journal file), so the default trades at most a few snapshots per
// second against losing at most this much work to a crash.
const DefaultCheckpointEvery = 2048

// emitCheckpoint snapshots tracker state, attaches the searcher's private
// state and RNG position, and hands the result to the Context hook. The
// hook runs on the searcher goroutine; implementations must be quick.
func (t *tracker) emitCheckpoint(method string, rngDraws int64, state any) error {
	if t.ctx.Checkpoint == nil {
		return nil
	}
	raw, err := json.Marshal(state)
	if err != nil {
		return fmt.Errorf("search: marshaling checkpoint state: %w", err)
	}
	ck := &Checkpoint{
		Method:     method,
		Eval:       t.evals,
		Elapsed:    t.elapsed(),
		BestEDP:    jsonFloat(t.best),
		SinceBest:  t.sinceBest,
		Trajectory: append([]Sample(nil), t.traj...),
		RNGDraws:   rngDraws,
		State:      raw,
	}
	if !math.IsInf(t.best, 1) {
		b := t.bestM.Clone()
		ck.Best = &b
	}
	t.lastCheckpoint = t.evals
	t.ctx.Checkpoint(ck)
	return nil
}

// Prefix is the trajectory a run resumed from c starts with: the samples
// of c.Trajectory that record would have kept (improvements and
// power-of-two evals), so a checkpoint written by a tracker that recorded
// more resumes into the trajectory an uninterrupted run records.
func (c *Checkpoint) Prefix() []Sample {
	var out []Sample
	best := math.Inf(1)
	for _, s := range c.Trajectory {
		if s.BestEDP < best {
			best = s.BestEDP
		} else if !powerOfTwo(s.Eval) {
			continue
		}
		out = append(out, s)
	}
	return out
}

// restore rewinds the tracker to a checkpoint: budget position, best-so-far
// state, and trajectory Prefix. The searcher separately restores its own
// State and RNG position.
func (t *tracker) restore(c *Checkpoint) {
	t.evals = c.Eval
	t.elapsed0 = c.Elapsed
	t.best = float64(c.BestEDP)
	if c.Best != nil {
		t.bestM = c.Best.Clone()
	}
	t.sinceBest = c.SinceBest
	t.traj = c.Prefix()
	t.lastCheckpoint = c.Eval
}
