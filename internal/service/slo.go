package service

import (
	"time"

	"mindmappings/internal/obs/slo"
)

// SLOConfig declares the server's service-level objectives. A zero field
// disables its objective; the zero config enables nothing. The burn-rate
// windows are slo's defaults: 5m fast, 1h slow, 10s sampling, critical
// burn 14.4.
type SLOConfig struct {
	// Availability is the target fraction of terminal search jobs that
	// finish successfully (degraded anytime completions count as good:
	// the client got a valid mapping; cancellations are the client's
	// choice and are excluded), in (0, 1).
	Availability float64
	// QueueWaitMax targets queue wait: latencyTarget of jobs must start
	// within QueueWaitMax of submission.
	QueueWaitMax time.Duration
	// FirstEvalMax targets time-to-first-eval: latencyTarget of jobs must
	// produce their first progress sample within FirstEvalMax of starting.
	FirstEvalMax time.Duration
}

// latencyTarget is the good fraction of both latency objectives. Their
// thresholds are the latency a "good" job must beat, effectively rounded
// down to a histogram bucket edge.
const latencyTarget = 0.95

// DefaultSLOConfig is the serve command's -slo preset: three nines of job
// availability, 95% of jobs starting within 30s, 95% of jobs producing a
// first evaluation within 5s of starting.
func DefaultSLOConfig() SLOConfig {
	return SLOConfig{
		Availability: 0.999,
		QueueWaitMax: 30 * time.Second,
		FirstEvalMax: 5 * time.Second,
	}
}

// EnableSLO builds the declarative SLO tracker over the job manager's
// counters, registers its burn-rate gauges on the server's registry, and
// wires its health score into the manager's Load snapshot — from that point
// on, admission Thresholds.MinHealth sheds on error-budget burn, and
// /readyz turns unready at health 0. Call once at setup, before traffic.
// Returns the tracker (nil when no objective is enabled).
func (s *Server) EnableSLO(cfg SLOConfig) *slo.Tracker {
	objs := s.jobs.sloObjectives(cfg)
	if len(objs) == 0 {
		return nil
	}
	t := slo.NewTracker(slo.Config{}, objs...)
	t.RegisterMetrics(s.reg)
	s.jobs.SetHealth(t.Health)
	s.slo = t
	return t
}

// sloObjectives derives the SLI callbacks for the configured objectives.
// Every callback reads only lock-free state (the manager's counters and
// histogram buckets): SLIs run under the tracker mutex and at
// metric-exposition time, where taking jm.mu would invert the registry →
// jm lock order.
func (jm *JobManager) sloObjectives(cfg SLOConfig) []slo.Objective {
	var objs []slo.Objective
	if cfg.Availability > 0 {
		done, failed := jm.met.done, jm.met.failed
		objs = append(objs, slo.Objective{
			Name:        "availability",
			Description: "terminal search jobs that finished successfully (cancellations excluded)",
			Target:      cfg.Availability,
			SLI: func() (good, total float64) {
				d, f := float64(done.Value()), float64(failed.Value())
				return d, d + f
			},
		})
	}
	if cfg.QueueWaitMax > 0 {
		h, maxWait := jm.met.queueWait, cfg.QueueWaitMax.Seconds()
		objs = append(objs, slo.Objective{
			Name:        "queue_wait",
			Description: "search jobs that reached a worker within the queue-wait threshold",
			Target:      latencyTarget,
			SLI: func() (good, total float64) {
				return float64(h.CountLE(maxWait)), float64(h.Count())
			},
		})
	}
	if cfg.FirstEvalMax > 0 {
		h, maxWait := jm.met.firstEval, cfg.FirstEvalMax.Seconds()
		objs = append(objs, slo.Objective{
			Name:        "first_eval",
			Description: "search jobs that produced a first evaluation within the threshold",
			Target:      latencyTarget,
			SLI: func() (good, total float64) {
				return float64(h.CountLE(maxWait)), float64(h.Count())
			},
		})
	}
	return objs
}

// StatusReport is the GET /v1/status body: the one-glance operational
// state — overall SLO health, per-objective burn rates, queue pressure,
// and how much flight-recorder history is available for a diag bundle.
type StatusReport struct {
	// Status summarizes Health: "ok" (>= 0.9), "degraded" (> 0),
	// "unhealthy" (0), or "draining" once graceful shutdown began.
	Status string `json:"status"`
	// Health is the SLO tracker's overall score in [0, 1]; 1 when no
	// tracker is enabled (an unobserved server is presumed healthy).
	Health   float64 `json:"health"`
	Uptime   string  `json:"uptime"`
	Draining bool    `json:"draining"`
	// SLO carries the per-objective evaluations when EnableSLO ran.
	SLO *slo.Report `json:"slo,omitempty"`
	// Jobs/queue pressure, the raw signals behind the queue-wait burn.
	Jobs           JobStats `json:"jobs"`
	QueueCap       int      `json:"queue_capacity"`
	Workers        int      `json:"workers"`
	RetryAfterHint string   `json:"retry_after_hint"`
	// FlightRecorderEvents is how many events the ring has ever seen
	// (GET /debug/flightrecorder holds the most recent window).
	FlightRecorderEvents uint64 `json:"flight_recorder_events"`
}

// statusOf classifies a health score.
func statusOf(health float64, draining bool) string {
	switch {
	case draining:
		return "draining"
	case health <= 0:
		return "unhealthy"
	case health < 0.9:
		return "degraded"
	}
	return "ok"
}
