// Package resilience is the service's robustness toolkit: a seeded
// deterministic fault injector (so every recovery path is testable at a
// fixed seed rather than theoretical), bounded retry with exponential
// backoff, a crash-safe on-disk JSON journal reusing the modelstore's
// atomic tmp+rename commit pattern, and a per-tenant token-bucket
// admission controller whose load-shedding decisions are driven by live
// observability signals. See DESIGN.md §9 for the resilience contract.
package resilience

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the sentinel wrapped by every injected fault, so callers
// (and retry policies) can classify them with errors.Is.
var ErrInjected = errors.New("resilience: injected fault")

// Faults is a seeded, deterministic fault injector. Each named site (e.g.
// "eval", "journal.write", "store.publish") keeps its own draw counter;
// whether draw #n at a site fires is a pure function of (seed, site, n),
// so a fixed seed reproduces the exact same fault schedule regardless of
// goroutine interleaving at *other* sites. Within one site, concurrent
// callers serialize on the counter, so the schedule of which calls fail is
// deterministic even if their global order is not.
//
// A nil *Faults is a valid no-op injector: every method is nil-safe, so
// call sites can hold an optional injector without branching.
type Faults struct {
	seed uint64
	mu   sync.Mutex
	site map[string]*faultSite
}

type faultSite struct {
	errRate float64       // probability an Inject call returns an error
	latRate float64       // probability an Inject call reports a latency spike
	latency time.Duration // spike duration
	n       uint64        // draws consumed at this site
}

// NewFaults returns an injector with no sites armed. Arm sites with
// SetErrorRate / SetLatency (or build one directly with ParseFaults).
func NewFaults(seed int64) *Faults {
	return &Faults{seed: uint64(seed), site: make(map[string]*faultSite)}
}

// SetErrorRate arms site to fail with probability p per Inject call.
func (f *Faults) SetErrorRate(site string, p float64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.siteLocked(site).errRate = clamp01(p)
	f.mu.Unlock()
}

// SetLatency arms site to report a latency spike of d with probability p
// per Inject call (independently of the error draw).
func (f *Faults) SetLatency(site string, p float64, d time.Duration) {
	if f == nil {
		return
	}
	f.mu.Lock()
	s := f.siteLocked(site)
	s.latRate = clamp01(p)
	s.latency = d
	f.mu.Unlock()
}

func (f *Faults) siteLocked(name string) *faultSite {
	s := f.site[name]
	if s == nil {
		s = &faultSite{}
		f.site[name] = s
	}
	return s
}

// Injection is the outcome of one Inject draw: an optional latency spike
// to emulate (the caller sleeps; the injector never blocks) and an
// optional error to return.
type Injection struct {
	Delay time.Duration
	Err   error
}

// Inject consumes one draw at site and returns what, if anything, should
// go wrong there. Nil receivers and unarmed sites return the zero
// Injection.
func (f *Faults) Inject(site string) Injection {
	if f == nil {
		return Injection{}
	}
	f.mu.Lock()
	s := f.site[site]
	if s == nil || (s.errRate == 0 && s.latRate == 0) {
		f.mu.Unlock()
		return Injection{}
	}
	n := s.n
	s.n++
	errRate, latRate, lat := s.errRate, s.latRate, s.latency
	f.mu.Unlock()

	var inj Injection
	if latRate > 0 && siteDraw(f.seed, site, 2*n) < latRate {
		inj.Delay = lat
	}
	if errRate > 0 && siteDraw(f.seed, site, 2*n+1) < errRate {
		inj.Err = fmt.Errorf("%w at %s #%d", ErrInjected, site, n)
	}
	return inj
}

// Fail consumes one draw at site and returns its injected error, if any,
// ignoring latency spikes. Convenience for sites that only fail.
func (f *Faults) Fail(site string) error { return f.Inject(site).Err }

// siteDraw maps (seed, site, counter) to a uniform value in [0, 1) via a
// splitmix64-style finalizer over an FNV-1a hash of the site name. Pure
// function: the schedule is reproducible across processes.
func siteDraw(seed uint64, site string, n uint64) float64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	x := seed ^ h ^ (n * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// ParseFaults builds an injector from a compact spec suitable for a flag
// or environment variable:
//
//	seed=7,eval=0.01,eval.lat=0.05:25ms,journal.write=0.05,store.publish=0.1
//
// Entries are comma-separated. "seed=N" seeds the injector (default 1);
// "<site>=<p>" arms an error rate; "<site>.lat=<p>:<dur>" arms latency
// spikes of <dur> with probability <p>. A spec that would arm nothing is
// an error: an empty site name, a NaN probability or a spike of no
// duration. An empty spec returns (nil, nil): the nil injector, faults
// disabled.
func ParseFaults(spec string) (*Faults, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	seed := int64(1)
	type latEntry struct {
		site string
		p    float64
		d    time.Duration
	}
	var errRates []struct {
		site string
		p    float64
	}
	var lats []latEntry
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("resilience: bad faults entry %q (want key=value)", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch {
		case key == "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("resilience: bad faults seed %q", val)
			}
			seed = n
		case strings.HasSuffix(key, ".lat"):
			site := strings.TrimSuffix(key, ".lat")
			if site == "" {
				return nil, fmt.Errorf("resilience: faults entry %q names no site", part)
			}
			pStr, dStr, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("resilience: bad latency spec %q (want p:duration)", part)
			}
			p, err := strconv.ParseFloat(pStr, 64)
			if err != nil || math.IsNaN(p) {
				return nil, fmt.Errorf("resilience: bad latency probability %q", pStr)
			}
			d, err := time.ParseDuration(dStr)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("resilience: bad latency duration %q (want one above 0)", dStr)
			}
			lats = append(lats, latEntry{site, p, d})
		case key == "":
			return nil, fmt.Errorf("resilience: faults entry %q names no site", part)
		default:
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(p) {
				return nil, fmt.Errorf("resilience: bad fault rate %q", part)
			}
			errRates = append(errRates, struct {
				site string
				p    float64
			}{key, p})
		}
	}
	f := NewFaults(seed)
	for _, e := range errRates {
		f.SetErrorRate(e.site, e.p)
	}
	for _, l := range lats {
		f.SetLatency(l.site, l.p, l.d)
	}
	return f, nil
}
