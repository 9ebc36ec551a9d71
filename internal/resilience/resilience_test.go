package resilience

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFaultsDeterministic(t *testing.T) {
	schedule := func() []bool {
		f := NewFaults(7)
		f.SetErrorRate("eval", 0.2)
		out := make([]bool, 200)
		for i := range out {
			out[i] = f.Fail("eval") != nil
		}
		return out
	}
	a, b := schedule(), schedule()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at draw %d", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("rate 0.2 fired %d/%d times — injector not probabilistic", fired, len(a))
	}
}

func TestFaultsSitesIndependent(t *testing.T) {
	// The "eval" schedule must not shift when another site is also drawn
	// from, or goroutine interleaving across sites would change outcomes.
	solo := NewFaults(7)
	solo.SetErrorRate("eval", 0.2)
	mixed := NewFaults(7)
	mixed.SetErrorRate("eval", 0.2)
	mixed.SetErrorRate("journal.write", 0.5)
	for i := 0; i < 100; i++ {
		want := solo.Fail("eval") != nil
		mixed.Fail("journal.write")
		if got := mixed.Fail("eval") != nil; got != want {
			t.Fatalf("eval draw %d changed when journal.write was interleaved", i)
		}
	}
}

func TestFaultsNilSafe(t *testing.T) {
	var f *Faults
	f.SetErrorRate("eval", 1)
	f.SetLatency("eval", 1, time.Second)
	if inj := f.Inject("eval"); inj.Err != nil || inj.Delay != 0 {
		t.Fatalf("nil injector injected %+v", inj)
	}
}

func TestFaultsErrorClassification(t *testing.T) {
	f := NewFaults(1)
	f.SetErrorRate("x", 1)
	err := f.Fail("x")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("injected error not classified: %v", err)
	}
	if errors.Is(errors.New("organic"), ErrInjected) {
		t.Fatal("organic error classified as injected")
	}
}

func TestParseFaults(t *testing.T) {
	f, err := ParseFaults("seed=7, eval=1, eval.lat=1:5ms, journal.write=0")
	if err != nil {
		t.Fatal(err)
	}
	inj := f.Inject("eval")
	if inj.Err == nil || inj.Delay != 5*time.Millisecond {
		t.Fatalf("armed site did not fire: %+v", inj)
	}
	if f.Fail("journal.write") != nil {
		t.Fatal("zero-rate site fired")
	}
	if f, err := ParseFaults(""); f != nil || err != nil {
		t.Fatalf("empty spec: got %v, %v", f, err)
	}
	for _, bad := range []string{"eval", "seed=x", "eval=x", "eval.lat=1", "eval.lat=1:xs",
		"eval=NaN", "eval.lat=NaN:5ms", "eval.lat=0.5:-10ms", "eval.lat=0.5:0s", "=0.5", ".lat=1:5ms"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
}

func TestRetryBoundedAndClassified(t *testing.T) {
	calls := 0
	p := RetryPolicy{Attempts: 4, Sleep: func(context.Context, time.Duration) error { return nil }}
	err := p.Do(context.Background(), func() error { calls++; return errors.New("always") })
	if err == nil || calls != 4 {
		t.Fatalf("got %v after %d calls, want persistent error after 4", err, calls)
	}

	calls = 0
	err = p.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("recovery: got %v after %d calls", err, calls)
	}

	calls = 0
	fatal := errors.New("fatal")
	p.Retryable = func(err error) bool { return !errors.Is(err, fatal) }
	if err := p.Do(context.Background(), func() error { calls++; return fatal }); !errors.Is(err, fatal) || calls != 1 {
		t.Fatalf("non-retryable: got %v after %d calls, want immediate fatal", err, calls)
	}
}

func TestRetryBackoffSchedule(t *testing.T) {
	var delays []time.Duration
	p := RetryPolicy{
		Attempts:  5,
		BaseDelay: 10 * time.Millisecond,
		MaxDelay:  40 * time.Millisecond,
		Sleep: func(_ context.Context, d time.Duration) error {
			delays = append(delays, d)
			return nil
		},
	}
	p.Do(context.Background(), func() error { return errors.New("x") })
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 40 * time.Millisecond}
	if len(delays) != len(want) {
		t.Fatalf("got %d backoffs %v, want %v", len(delays), delays, want)
	}
	for i := range want {
		if delays[i] != want[i] {
			t.Fatalf("backoff %d = %v, want %v", i, delays[i], want[i])
		}
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	p := RetryPolicy{Attempts: 10, BaseDelay: time.Millisecond}
	err := p.Do(ctx, func() error { calls++; return errors.New("x") })
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("got %v after %d calls, want canceled after first attempt", err, calls)
	}
}

type rec struct {
	ID   string `json:"id"`
	Best string `json:"best"`
	N    int    `json:"n"`
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Put("job-1", rec{ID: "job-1", Best: "m0", N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Put("job-1", rec{ID: "job-1", Best: "m1", N: 2}); err != nil {
		t.Fatal(err)
	}
	if err := j.Put("job-2", rec{ID: "job-2"}); err != nil {
		t.Fatal(err)
	}

	// A fresh open (the recovery path) sees the latest committed records.
	j2, err := OpenJournal(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	ids, err := j2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "job-1" || ids[1] != "job-2" {
		t.Fatalf("List = %v", ids)
	}
	var got rec
	if err := j2.Get("job-1", &got); err != nil {
		t.Fatal(err)
	}
	if got.Best != "m1" || got.N != 2 {
		t.Fatalf("Get returned stale record %+v", got)
	}

	if err := j2.Delete("job-1"); err != nil {
		t.Fatal(err)
	}
	if err := j2.Delete("job-1"); err != nil {
		t.Fatalf("repeated delete not idempotent: %v", err)
	}
	if err := j2.Get("job-1", &got); !errors.Is(err, ErrNotJournaled) {
		t.Fatalf("Get after delete = %v, want ErrNotJournaled", err)
	}
}

func TestJournalIgnoresAndSweepsDebris(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jobs")
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Put("job-1", rec{ID: "job-1"}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-compaction: a torn staging file of the segment
	// next to it.
	debris := filepath.Join(dir, journalFile+".tmp-0123456789abcdef")
	if err := os.WriteFile(debris, []byte(`{"id":"jo`), 0o644); err != nil {
		t.Fatal(err)
	}
	ids, err := j.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "job-1" {
		t.Fatalf("List sees debris: %v", ids)
	}
	if _, err := OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(debris); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("reopen did not sweep temp debris")
	}
}

func TestJournalFailpointRetries(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	// Each Put consults the failpoint twice (stage + commit); with rate
	// 0.3 an attempt succeeds with p=0.49, so 8 attempts leave ~0.5% per
	// Put — and seed 7's schedule is fixed, so this either always passes
	// or never does.
	j.Retry = RetryPolicy{Attempts: 8, Sleep: func(context.Context, time.Duration) error { return nil }}
	f := NewFaults(7)
	f.SetErrorRate("journal.write", 0.3)
	j.SetFailpoint(f.Fail)
	for i := 0; i < 20; i++ {
		if err := j.Put("job-1", rec{N: i}); err != nil {
			t.Fatalf("Put %d failed despite retries: %v", i, err)
		}
	}
	var got rec
	if err := j.Get("job-1", &got); err != nil || got.N != 19 {
		t.Fatalf("final record %+v, %v", got, err)
	}

	// A failpoint that always fires must surface the injected error after
	// the attempt budget, not loop forever.
	j.SetFailpoint(func(string) error { return ErrInjected })
	if err := j.Put("job-1", rec{}); !errors.Is(err, ErrInjected) {
		t.Fatalf("persistent failpoint: got %v", err)
	}
}

func TestJournalRejectsBadIDs(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "a/b", `a\b`, "../escape", ".hidden"} {
		if err := j.Put(id, rec{}); err == nil {
			t.Fatalf("id %q accepted", id)
		}
	}
}

func TestAdmissionTokenBucket(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	a := NewAdmission(AdmissionConfig{Rate: 1, Burst: 2}, nil, WithClock(clock))

	for i := 0; i < 2; i++ {
		if d := a.Admit("t1"); !d.OK {
			t.Fatalf("burst admit %d rejected: %+v", i, d)
		}
	}
	d := a.Admit("t1")
	if d.OK || d.Code != 429 || d.RetryAfter < time.Second {
		t.Fatalf("over-quota admit = %+v, want 429 with Retry-After", d)
	}
	// Another tenant's bucket is untouched.
	if d := a.Admit("t2"); !d.OK {
		t.Fatalf("other tenant rejected: %+v", d)
	}
	// One second refills one token for t1.
	now = now.Add(time.Second)
	if d := a.Admit("t1"); !d.OK {
		t.Fatalf("post-refill admit rejected: %+v", d)
	}
}

// TestAdmissionFractionalBurstRaisedToOne pins that a bucket deeper than
// zero but shallower than one token still admits: a request spends a whole
// token, so a 0.5-deep bucket would answer 429 forever, however long the
// tenant waited.
func TestAdmissionFractionalBurstRaisedToOne(t *testing.T) {
	now := time.Unix(0, 0)
	a := NewAdmission(AdmissionConfig{Rate: 10, Burst: 0.5}, nil,
		WithClock(func() time.Time { return now }))
	for i := 0; i < 3; i++ {
		if d := a.Admit("t"); !d.OK {
			t.Fatalf("admit %d after %v rejected: %+v", i, now.Sub(time.Unix(0, 0)), d)
		}
		a.Release("t")
		if d := a.Admit("t"); d.OK || d.Code != 429 {
			t.Fatalf("second admit within the same instant = %+v, want 429 (depth 1)", d)
		}
		now = now.Add(10 * time.Second)
	}
}

func TestAdmissionConcurrencyCap(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 2}, nil)
	if !a.Admit("t").OK || !a.Admit("t").OK {
		t.Fatal("under-cap admits rejected")
	}
	if d := a.Admit("t"); d.OK || d.Code != 429 {
		t.Fatalf("over-cap admit = %+v", d)
	}
	a.Release("t")
	if !a.Admit("t").OK {
		t.Fatal("admit after release rejected")
	}
}

func TestAdmissionShedding(t *testing.T) {
	load := Load{}
	a := NewAdmission(AdmissionConfig{
		MaxConcurrent: 4,
		Thresholds:    Thresholds{QueueFraction: 0.8},
	}, func() Load { return load })

	// Healthy: admits.
	if d := a.Admit("t"); !d.OK {
		t.Fatalf("healthy admit rejected: %+v", d)
	}

	// Soft overload sheds tenants at fair share (cap/2 = 2) but not light ones.
	load = Load{QueueDepth: 9, QueueCap: 10}
	if d := a.Admit("light"); !d.OK {
		t.Fatalf("light tenant shed under soft overload: %+v", d)
	}
	a.Admit("t") // t now at 2 in flight = fair share
	if d := a.Admit("t"); d.OK || d.Code != 503 || d.RetryAfter < time.Second {
		t.Fatalf("heavy tenant not shed under soft overload: %+v", d)
	}
}

func TestAdmissionRetryHint(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Thresholds: Thresholds{MinHealth: 0.5}},
		func() Load { return Load{Health: 0} },
		WithRetryHint(func() time.Duration { return 90 * time.Second }))
	if d := a.Admit("t"); d.RetryAfter != 30*time.Second {
		t.Fatalf("RetryAfter = %v, want clamp to 30s", d.RetryAfter)
	}
}

// TestAdmissionForgetsIdleTenants pins the tenant map's bound under a
// rate quota: a tenant whose bucket has refilled and who has nothing in
// flight is dropped, so a stream of distinct tenants does not grow the
// map, and a dropped tenant comes back with a full bucket.
func TestAdmissionForgetsIdleTenants(t *testing.T) {
	now := time.Unix(0, 0)
	const rate, burst = 1.0, 2.0
	a := NewAdmission(AdmissionConfig{Rate: rate, Burst: burst}, nil,
		WithClock(func() time.Time { return now }))
	step := time.Duration(burst / rate * float64(time.Second))
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		if d := a.Admit(name); !d.OK {
			t.Fatalf("admit %s rejected: %+v", name, d)
		}
		a.Release(name)
		now = now.Add(step)
	}
	a.mu.Lock()
	n := len(a.tenants)
	a.mu.Unlock()
	if n >= 64 {
		t.Fatalf("%d tenant entries remain after 10000 idle tenants, want < 64", n)
	}
	// tenant-0 was dropped long ago; its bucket must be full again.
	for i := 0; i < int(burst); i++ {
		if d := a.Admit("tenant-0"); !d.OK {
			t.Fatalf("returning tenant admit %d rejected: %+v", i, d)
		}
	}
	if d := a.Admit("tenant-0"); d.OK || d.Code != 429 {
		t.Fatalf("admit past a full bucket = %+v, want 429", d)
	}
}

// TestAdmissionConcurrentAccounting hammers Admit/Release from many
// goroutines and checks the books balance — run under -race in CI.
func TestAdmissionConcurrentAccounting(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 8}, nil)
	const workers, iters = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if a.Admit("shared").OK {
					a.mu.Lock()
					got := a.tenants["shared"].inFlight
					a.mu.Unlock()
					if got < 1 || got > 8 {
						t.Errorf("in-flight %d outside [1,8]", got)
					}
					a.Release("shared")
				}
			}
		}()
	}
	wg.Wait()
	a.mu.Lock()
	defer a.mu.Unlock()
	if ts := a.tenants["shared"]; ts != nil && ts.inFlight != 0 {
		t.Fatalf("tenant in-flight %d after all releases", ts.inFlight)
	}
}

// TestAdmissionHealthShedding pins the SLO-health shed path: a score under
// MinHealth soft-sheds heavy tenants, and a score of exactly 0 hard-sheds
// everyone — the health signal, not raw heap/queue numbers, drives the
// decision.
func TestAdmissionHealthShedding(t *testing.T) {
	load := Load{Health: 1}
	a := NewAdmission(AdmissionConfig{
		MaxConcurrent: 4,
		Thresholds:    Thresholds{MinHealth: 0.5},
	}, func() Load { return load })

	if d := a.Admit("t"); !d.OK {
		t.Fatalf("healthy admit rejected: %+v", d)
	}

	// Health under threshold: soft shed — light tenants pass, tenants at
	// fair share (cap/2 = 2) shed.
	load = Load{Health: 0.3}
	if d := a.Admit("light"); !d.OK {
		t.Fatalf("light tenant shed on degraded health: %+v", d)
	}
	a.Admit("t") // t at 2 in flight = fair share
	d := a.Admit("t")
	if d.OK || d.Code != 503 {
		t.Fatalf("heavy tenant not shed on degraded health: %+v", d)
	}
	if !strings.Contains(d.Reason, "health") {
		t.Fatalf("shed reason %q does not name the health signal", d.Reason)
	}

	// Health exhausted: hard shed, even a fresh tenant.
	load = Load{Health: 0}
	if d := a.Admit("fresh"); d.OK || d.Code != 503 {
		t.Fatalf("zero health did not hard-shed: %+v", d)
	}

	// Recovery: admits resume.
	load = Load{Health: 0.9}
	if d := a.Admit("fresh"); !d.OK {
		t.Fatalf("admit after recovery rejected: %+v", d)
	}
}
