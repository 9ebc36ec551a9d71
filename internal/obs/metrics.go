// Package obs is the service's dependency-free observability layer:
// metric primitives (atomic counters, gauges, log-bucketed latency
// histograms with quantile estimation) collected in a named Registry with
// Prometheus text exposition, lightweight per-request/per-job trace spans
// propagated through context.Context, bounded event streams for live
// progress telemetry (the SSE endpoints and the CLI -progress line), and
// process runtime introspection.
//
// Everything here is stdlib-only and safe for concurrent use. The hot-path
// contract: observing a metric is a handful of atomic adds — no locks, no
// allocations — so instrumentation can sit next to the evaluation hot path
// without bending the PR-2 "0 allocs/op" and throughput invariants.
// Name-to-metric resolution (registry lookups, label resolution) does take
// a lock and must happen once at setup time, with the returned pointer
// kept for the hot path.
package obs

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.n.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is an atomic float64 value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (a CAS loop; gauges are low-frequency metrics).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-boundary histogram with atomic buckets. Observe is
// lock- and allocation-free: a branchless-ish bucket scan over a small
// boundary slice plus three atomic adds (bucket, count, sum), so it can be
// fed from latency-sensitive paths.
//
// Boundaries are upper bounds in ascending order; an implicit +Inf bucket
// catches the tail. Quantile estimates interpolate within the containing
// bucket, so they are exact at bucket edges and monotone in q by
// construction (cumulative counts are non-decreasing and boundaries
// ascend).
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf implied after the last
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
}

// NewHistogram builds a histogram over the given ascending bucket upper
// bounds. Panics on empty or non-ascending bounds: histogram construction
// is a setup-time operation and a bad layout is a programming error.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds must ascend, got %v", bounds))
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1), // + the +Inf bucket
	}
}

// ExpBuckets returns n ascending bounds starting at start, each factor
// times the previous — the standard log-spaced latency layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefBuckets is the default latency layout: 2x steps from 100µs to ~105s,
// wide enough for HTTP round trips, job queue waits, and whole searches.
var DefBuckets = ExpBuckets(100e-6, 2, 21)

// Observe records one value (in the histogram's unit; latency histograms
// use seconds by convention).
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			break
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// CountLE returns how many observations landed in buckets whose upper
// bound is <= le — the lock-free read behind threshold SLIs ("fraction of
// queue waits under 2s"). The threshold is effectively rounded down to the
// nearest bucket boundary, so choose SLI thresholds on (or near) bucket
// edges. Like any concurrent snapshot, a racing Observe may or may not be
// included.
func (h *Histogram) CountLE(le float64) int64 {
	var cum int64
	for i, b := range h.bounds {
		if b > le {
			break
		}
		cum += h.buckets[i].Load()
	}
	return cum
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot copies the bucket counts (non-cumulative) consistently enough
// for exposition: individual loads are atomic; a scrape racing observes at
// worst a sample landing between bucket and count loads.
func (h *Histogram) snapshot() []int64 {
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 < q < 1) from the bucket counts by
// linear interpolation within the containing bucket. The first bucket
// interpolates from 0; the +Inf bucket is clamped to the last finite
// bound, so estimates are always finite. Returns 0 when empty. Estimates
// are monotone in q.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.buckets {
		prev := cum
		cum += h.buckets[i].Load()
		if float64(cum) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i == len(h.bounds) {
				// +Inf bucket: no finite upper edge to interpolate toward.
				return h.bounds[len(h.bounds)-1]
			}
			hi := h.bounds[i]
			if cum == prev {
				return hi
			}
			frac := (rank - float64(prev)) / float64(cum-prev)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
	}
	return h.bounds[len(h.bounds)-1]
}
