package resilience

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Load is a snapshot of the live overload signals the admission controller
// sheds on: queue depth and capacity (the queued-jobs gauge) and the SLO
// health score.
type Load struct {
	QueueDepth int
	QueueCap   int
	// Health is the SLO tracker's overall score in [0, 1] (1 = pristine).
	// Only meaningful when Thresholds.MinHealth is set; a load source that
	// enables MinHealth must populate Health on every snapshot.
	Health float64
}

// Thresholds separates healthy from overloaded. Zero fields disable that
// signal. QueueFraction and MinHealth mark *soft* overload: the system is
// backing up or burning error budget, so tenants over their fair share are
// shed while light tenants still get through. A health score of exactly 0
// (every objective's budget burning at critical rate) is *hard* overload:
// everything sheds.
type Thresholds struct {
	QueueFraction float64
	// MinHealth sheds when Load.Health drops below it: the shed point is
	// "the error budget is burning", whatever resource causes it.
	MinHealth float64
}

// AdmissionConfig sizes the per-tenant quotas. Zero fields disable the
// corresponding limit, so the zero config admits everything (shedding
// still applies if Thresholds are set).
type AdmissionConfig struct {
	// Rate is the sustained admissions per second per tenant; Burst is
	// the token-bucket depth (defaults to max(Rate, 1) when Rate > 0).
	// Admission spends one whole token, so with Rate > 0 a positive Burst
	// below 1 is raised to 1: a shallower bucket would never admit.
	Rate  float64
	Burst float64
	// MaxConcurrent caps a tenant's jobs in flight (queued + running).
	MaxConcurrent int
	Thresholds    Thresholds
}

// Decision is the admission verdict for one request. Rejections carry the
// HTTP status the transport should use — 429 for per-tenant quota
// exhaustion (the client is over *its* limit), 503 for load shedding (the
// *server* is overloaded) — and a Retry-After hint.
type Decision struct {
	OK         bool
	Code       int
	Reason     string
	RetryAfter time.Duration
}

// AdmissionStats is a counters snapshot, exposed by the service as the
// admission_* series on /metrics.
type AdmissionStats struct {
	Admitted     int64 `json:"admitted"`
	RejectedRate int64 `json:"rejected_rate"`
	RejectedConc int64 `json:"rejected_concurrency"`
	Shed         int64 `json:"shed"`
	InFlight     int   `json:"in_flight"`
}

// Admission is a per-tenant token-bucket + concurrency-cap admission
// controller with obs-signal-driven load shedding. Tenants are keyed by
// an opaque string (the service uses the X-Tenant header, "" for
// anonymous). Safe for concurrent use.
type Admission struct {
	cfg    AdmissionConfig
	loadFn func() Load
	// hint estimates how long until capacity frees up (the service wires
	// queue-depth × run-time); shed Retry-After uses it when present.
	hint func() time.Duration
	now  func() time.Time

	mu      sync.Mutex
	tenants map[string]*tenantState
	// sweepAt is the tenant count at which the next new tenant first
	// sweeps out idle, refilled tenants: twice what the last sweep left,
	// and at least minSweep.
	sweepAt int
	stats   AdmissionStats
}

const minSweep = 16

type tenantState struct {
	tokens   float64
	refilled time.Time
	inFlight int
}

// NewAdmission builds a controller. loadFn supplies live overload signals
// and may be nil (shedding disabled). Option funcs inject the clock and
// the retry hint.
func NewAdmission(cfg AdmissionConfig, loadFn func() Load, opts ...AdmissionOption) *Admission {
	if cfg.Rate > 0 {
		if cfg.Burst <= 0 {
			cfg.Burst = cfg.Rate
		}
		cfg.Burst = math.Max(cfg.Burst, 1)
	}
	a := &Admission{
		cfg:     cfg,
		loadFn:  loadFn,
		now:     time.Now,
		tenants: make(map[string]*tenantState),
	}
	for _, opt := range opts {
		opt(a)
	}
	return a
}

// AdmissionOption customizes a controller.
type AdmissionOption func(*Admission)

// WithClock injects a clock for deterministic bucket tests.
func WithClock(now func() time.Time) AdmissionOption {
	return func(a *Admission) { a.now = now }
}

// WithRetryHint injects an estimate of time-until-capacity used for shed
// Retry-After values.
func WithRetryHint(hint func() time.Duration) AdmissionOption {
	return func(a *Admission) { a.hint = hint }
}

// Admit decides whether tenant may submit one job. An OK decision charges
// one token and one concurrency slot; the caller must Release the slot
// exactly once when the job leaves the system (terminal state or rejected
// downstream). Checks run shed-first (overload rejections must stay
// cheap), then the concurrency cap, then the token bucket, so a request
// rejected by an earlier check never burns bucket tokens.
func (a *Admission) Admit(tenant string) Decision {
	now := a.now()
	load := Load{}
	if a.loadFn != nil {
		load = a.loadFn()
	}
	// The load and hint callbacks reach back into the caller's locks, so
	// both run outside a.mu: a caller may hold its own lock while invoking
	// Release, and taking the locks in both orders would deadlock.
	d := a.decide(tenant, now, load)
	if !d.OK && d.RetryAfter == 0 {
		d.RetryAfter = a.retryAfter()
	}
	return d
}

// decide is Admit under a.mu. Shed and concurrency rejections leave
// RetryAfter zero for Admit to fill in.
func (a *Admission) decide(tenant string, now time.Time, load Load) Decision {
	a.mu.Lock()
	defer a.mu.Unlock()

	ts := a.tenants[tenant]
	if ts == nil {
		if len(a.tenants) >= a.sweepAt {
			a.sweepLocked(now)
		}
		ts = &tenantState{tokens: a.cfg.Burst, refilled: now}
		a.tenants[tenant] = ts
	}

	if reason, shed := a.shedLocked(ts, load); shed {
		a.stats.Shed++
		return Decision{Code: 503, Reason: reason}
	}
	if a.cfg.MaxConcurrent > 0 && ts.inFlight >= a.cfg.MaxConcurrent {
		a.stats.RejectedConc++
		return Decision{Code: 429, Reason: fmt.Sprintf("tenant concurrency cap (%d in flight)", ts.inFlight)}
	}
	if a.cfg.Rate > 0 {
		elapsed := now.Sub(ts.refilled).Seconds()
		if elapsed > 0 {
			ts.tokens = math.Min(a.cfg.Burst, ts.tokens+elapsed*a.cfg.Rate)
			ts.refilled = now
		}
		if ts.tokens < 1 {
			a.stats.RejectedRate++
			wait := time.Duration((1 - ts.tokens) / a.cfg.Rate * float64(time.Second))
			return Decision{Code: 429, Reason: "tenant rate quota exhausted", RetryAfter: clampRetry(wait)}
		}
		ts.tokens--
	}
	ts.inFlight++
	a.stats.Admitted++
	a.stats.InFlight++
	return Decision{OK: true}
}

// idle reports whether ts carries no state a fresh entry would not: no
// job in flight, and a bucket that has refilled to Burst by now.
func (a *Admission) idle(ts *tenantState, now time.Time) bool {
	return ts.inFlight == 0 &&
		(a.cfg.Rate <= 0 || ts.tokens+now.Sub(ts.refilled).Seconds()*a.cfg.Rate >= a.cfg.Burst)
}

// sweepLocked drops every idle tenant, bounding the map by the tenants
// active within one refill period rather than every tenant ever seen.
func (a *Admission) sweepLocked(now time.Time) {
	for name, ts := range a.tenants {
		if a.idle(ts, now) {
			delete(a.tenants, name)
		}
	}
	a.sweepAt = max(2*len(a.tenants), minSweep)
}

// shedLocked applies the overload thresholds. A zero health score sheds
// every tenant; soft overload (queue fraction, health under MinHealth)
// sheds only tenants at or above their fair share of the concurrency cap,
// so a noisy neighbor degrades before light traffic does.
func (a *Admission) shedLocked(ts *tenantState, load Load) (string, bool) {
	th := a.cfg.Thresholds
	if th.MinHealth > 0 && load.Health <= 0 {
		// Every objective is at critical burn: protect the process
		// regardless of who is asking.
		return "slo health exhausted", true
	}
	soft := false
	reason := ""
	if th.QueueFraction > 0 && load.QueueCap > 0 &&
		float64(load.QueueDepth) >= th.QueueFraction*float64(load.QueueCap) {
		soft, reason = true, "queue depth over threshold"
	}
	if th.MinHealth > 0 && load.Health < th.MinHealth {
		soft, reason = true, "slo health under threshold"
	}
	if !soft {
		return "", false
	}
	fair := 1
	if a.cfg.MaxConcurrent > 0 {
		fair = (a.cfg.MaxConcurrent + 1) / 2
	}
	if ts.inFlight >= fair {
		return reason + " (tenant over fair share)", true
	}
	return "", false
}

// retryAfter picks the Retry-After hint for a shed or concurrency
// rejection: the injected capacity estimate clamped to [1s, 30s], or 1s
// without one. Called outside a.mu (the hint callback may acquire
// caller-side locks).
func (a *Admission) retryAfter() time.Duration {
	if a.hint != nil {
		if d := a.hint(); d > 0 {
			return clampRetry(d)
		}
	}
	return time.Second
}

func clampRetry(d time.Duration) time.Duration {
	if d < time.Second {
		return time.Second
	}
	if d > 30*time.Second {
		return 30 * time.Second
	}
	return d
}

// Release returns tenant's concurrency slot. Must be called exactly once
// per OK Admit decision.
func (a *Admission) Release(tenant string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.tenants[tenant]
	if ts == nil || ts.inFlight <= 0 {
		return
	}
	ts.inFlight--
	a.stats.InFlight--
	if a.idle(ts, a.now()) {
		delete(a.tenants, tenant)
	}
}

// Stats snapshots the counters.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}
