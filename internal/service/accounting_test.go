package service

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mindmappings/internal/obs"
	"mindmappings/internal/resilience"
)

// seriesValues returns every sample of family in a Prometheus exposition,
// keyed by its full series text (name plus label block).
func seriesValues(t *testing.T, text, family string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, family+"{") && !strings.HasPrefix(line, family+" ") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func sumValues(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

// TestTenantRejectionsSurviveCardinalityCap floods the admission
// controller with more distinct tenants than the registry's per-family
// cap, each rejected once. Every rejection must land in exactly one
// tenant_rejected_total series (the overflow series included), so the
// per-tenant series sum to the controller's totals, and no series may go
// backwards between scrapes.
func TestTenantRejectionsSurviveCardinalityCap(t *testing.T) {
	registry := NewModelRegistry(t.TempDir(), 1)
	cache := NewEvalCache(1 << 10)
	const tenants = 70
	jm := NewJobManager(registry, cache, 1, tenants)
	t.Cleanup(func() { jm.Shutdown(context.Background()) })
	// A one-token bucket that never refills within the test: each tenant's
	// first submit is admitted and its second is rejected with 429.
	jm.EnableAdmission(resilience.AdmissionConfig{Rate: 0.001, Burst: 1})
	ts := httptest.NewServer(NewServer(jm, registry, cache).Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < tenants; i++ {
		tenant := fmt.Sprintf("tenant-%02d", i)
		if _, err := jm.SubmitAs(tenant, validRequest()); err != nil {
			t.Fatalf("tenant %d: first submit: %v", i, err)
		}
		_, err := jm.SubmitAs(tenant, validRequest())
		var admErr *AdmissionError
		if !errors.As(err, &admErr) || admErr.Decision.Code != 429 {
			t.Fatalf("tenant %d: err %v, want a 429 admission rejection", i, err)
		}
	}
	first := scrapeProm(t, ts)
	perTenant := seriesValues(t, first, "tenant_rejected_total")
	total := sumValues(seriesValues(t, first, "admission_rejected_total")) +
		sumValues(seriesValues(t, first, "admission_shed_total"))
	if total != tenants || sumValues(perTenant) != total {
		t.Fatalf("tenant_rejected_total sums to %v, admission totals to %v, want %d each",
			sumValues(perTenant), total, tenants)
	}
	var overflow float64
	for series, v := range perTenant {
		if strings.Contains(series, `tenant="_overflow"`) {
			overflow += v
		}
	}
	if overflow == 0 {
		t.Fatalf("overflow series carry no rejections: %v", perTenant)
	}
	for series, v := range seriesValues(t, scrapeProm(t, ts), "tenant_rejected_total") {
		if v < perTenant[series] {
			t.Errorf("%s went from %v to %v between scrapes", series, perTenant[series], v)
		}
	}
}

// TestRecoveredJobAccounted pins that a job recovered from the journal
// before the HTTP server exists — the order serve uses — is accounted in
// the per-tenant series and the queue-wait histogram like any other job.
func TestRecoveredJobAccounted(t *testing.T) {
	j, err := resilience.OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const id = "0123456789abcdef0123456789abcdef"
	rec := journalRecord{ID: id, Tenant: "acme", Status: JobQueued, Request: validRequest(), Created: time.Now()}
	if err := j.Put(id, rec); err != nil {
		t.Fatal(err)
	}
	registry := NewModelRegistry(t.TempDir(), 1)
	cache := NewEvalCache(1 << 10)
	jm := NewJobManager(registry, cache, 1, 4)
	t.Cleanup(func() { jm.Shutdown(context.Background()) })
	if n, err := jm.EnableJournal(j); err != nil || n != 1 {
		t.Fatalf("EnableJournal = %d, %v; want 1 recovered", n, err)
	}
	ts := httptest.NewServer(NewServer(jm, registry, cache).Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done, err := jm.Wait(ctx, id)
	if err != nil || done.Status != JobDone {
		t.Fatalf("recovered job: %v, status %s (%s)", err, done.Status, done.Error)
	}
	prom := scrapeProm(t, ts)
	for _, want := range []string{
		`tenant_jobs_done_total{tenant="acme"} 1`,
		fmt.Sprintf(`tenant_evals_total{tenant="acme"} %d`, done.Result.Evals),
		`search_job_queue_seconds_count 1`,
		`search_jobs_recovered_total 1`,
	} {
		if !strings.Contains(prom, want+"\n") {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTenantMapBounded resolves far more distinct tenants than the
// registry's cardinality cap, from several goroutines at once: past the
// cap, new tenants share the overflow instrument set instead of growing
// the manager's tenant map.
func TestTenantMapBounded(t *testing.T) {
	registry := NewModelRegistry(t.TempDir(), 1)
	cache := NewEvalCache(1 << 10)
	jm := NewJobManager(registry, cache, 1, 4)
	t.Cleanup(func() { jm.Shutdown(context.Background()) })
	NewServer(jm, registry, cache)
	const workers, perWorker = 4, 2500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if jm.tenantFor(fmt.Sprintf("flood-%d-%d", w, i)) == nil {
					t.Error("tenantFor returned nil")
					return
				}
			}
		}()
	}
	wg.Wait()
	if ti := jm.tenantFor("late"); ti.label != overflowTenant {
		t.Fatalf("a tenant past the cap resolved to label %q, want %q", ti.label, overflowTenant)
	}
	jm.tenantMu.Lock()
	n := len(jm.tenants)
	jm.tenantMu.Unlock()
	if n > obs.DefaultMaxCardinality+1 {
		t.Fatalf("tenant map holds %d entries, want <= %d", n, obs.DefaultMaxCardinality+1)
	}
}
