package service

import (
	"strconv"

	"mindmappings/internal/obs"
)

// Per-tenant accounting. Every submission resolves the tenant's instrument
// set once (registry lookups are setup-cost, never hot-path) and pins it on
// the Job, so the finish path under jm.mu touches only atomics. The set of
// tenants is bounded by the registry's per-family cap: past
// obs.DefaultMaxCardinality distinct X-Tenant values, new tenants share one
// "_overflow" set — the series the cap would collapse them into anyway —
// and the manager stores nothing more for them.

// anonTenant is the metric label for the "" (anonymous) tenant.
const anonTenant = "anon"

// overflowTenant labels the instrument set shared by tenants beyond the
// cap.
const overflowTenant = "_overflow"

// tenantLabel maps the raw X-Tenant value to its metric label value.
func tenantLabel(tenant string) string {
	if tenant == "" {
		return anonTenant
	}
	return tenant
}

// tenantInstruments is one tenant's RED series: request rate, terminal
// outcomes (errors), whole-request latency, plus the capacity signals the
// per-tenant SLO conversation needs (evals consumed, atlas hits).
type tenantInstruments struct {
	reg   *obs.Registry
	label string

	requests  *obs.Counter
	done      *obs.Counter
	failed    *obs.Counter
	cancelled *obs.Counter
	degraded  *obs.Counter
	// evals accumulates cost-model evaluations consumed by the tenant's
	// finished jobs; atlasHits counts requests answered from the atlas.
	evals     *obs.Counter
	atlasHits *obs.Counter
	// jobSeconds is request latency submit→terminal (queue wait included:
	// that is what the tenant experiences).
	jobSeconds *obs.Histogram
}

// tenantFor returns (registering on first sight) the tenant's instrument
// set. Never call while holding jm.mu — registration takes the registry
// lock, and exposition callbacks take jm.mu under it.
func (jm *JobManager) tenantFor(tenant string) *tenantInstruments {
	jm.tenantMu.Lock()
	defer jm.tenantMu.Unlock()
	if ti, ok := jm.tenants[tenant]; ok {
		return ti
	}
	if len(jm.tenants) < obs.DefaultMaxCardinality {
		ti := newTenantInstruments(jm.reg, tenantLabel(tenant))
		jm.tenants[tenant] = ti
		return ti
	}
	if jm.tenantOverflow == nil {
		jm.tenantOverflow = newTenantInstruments(jm.reg, overflowTenant)
	}
	return jm.tenantOverflow
}

func newTenantInstruments(reg *obs.Registry, label string) *tenantInstruments {
	names, vals := []string{"tenant"}, []string{label}
	return &tenantInstruments{
		reg:   reg,
		label: label,
		requests: reg.CounterWith("tenant_requests_total",
			"Search submissions accepted per tenant (atlas hits included).", names, vals),
		done: reg.CounterWith("tenant_jobs_done_total",
			"Search jobs finished successfully per tenant.", names, vals),
		failed: reg.CounterWith("tenant_jobs_failed_total",
			"Search jobs that ended in an error per tenant.", names, vals),
		cancelled: reg.CounterWith("tenant_jobs_cancelled_total",
			"Search jobs cancelled per tenant.", names, vals),
		degraded: reg.CounterWith("tenant_jobs_degraded_total",
			"Search jobs completed degraded at their anytime deadline per tenant.", names, vals),
		evals: reg.CounterWith("tenant_evals_total",
			"Cost-model evaluations consumed by the tenant's finished jobs.", names, vals),
		atlasHits: reg.CounterWith("tenant_atlas_hits_total",
			"Requests answered from the atlas without a search, per tenant.", names, vals),
		jobSeconds: reg.HistogramWith("tenant_job_seconds",
			"Whole-request latency per tenant, submission to terminal state.",
			nil, names, vals),
	}
}

// rejected records one admission rejection under its HTTP code (429 quota,
// 503 shed). The series registers on the tenant's first rejection with that
// code, so tenants that are never rejected add no rejection series.
func (ti *tenantInstruments) rejected(code int) {
	ti.reg.CounterWith("tenant_rejected_total",
		"Admission rejections per tenant by HTTP code (429 quota, 503 shed).",
		[]string{"tenant", "code"}, []string{ti.label, strconv.Itoa(code)}).Inc()
}

// accepted records one accepted submission.
func (ti *tenantInstruments) accepted() { ti.requests.Inc() }

// atlasServed records an exact-hit atlas answer (instant success).
func (ti *tenantInstruments) atlasServed() {
	ti.requests.Inc()
	ti.atlasHits.Inc()
	ti.done.Inc()
}

// finished records a job's terminal state. Called under jm.mu: every
// observation here is an atomic add on pre-resolved instruments.
func (ti *tenantInstruments) finished(job *Job) {
	result := job.Result
	switch job.Status {
	case JobDone:
		ti.done.Inc()
		if result != nil && result.Degraded {
			ti.degraded.Inc()
		}
	case JobFailed:
		ti.failed.Inc()
	case JobCancelled:
		ti.cancelled.Inc()
	}
	if result != nil {
		ti.evals.Add(int64(result.Evals))
	}
	if !job.Created.IsZero() && !job.Finished.IsZero() {
		ti.jobSeconds.Observe(job.Finished.Sub(job.Created).Seconds())
	}
}
