package obs

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Add(2.5)
	g.Add(-1.25)
	if got := g.Value(); got != 1.25 {
		t.Fatalf("gauge = %v, want 1.25", got)
	}
}

func TestHistogramObserveAndCounts(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 106.0; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Buckets: <=1 gets 0.5 and 1; <=2 gets 1.5; <=4 gets 3; +Inf gets 100.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Fatalf("bucket[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestHistogramQuantilesMonotone(t *testing.T) {
	h := NewHistogram(ExpBuckets(1e-4, 2, 20))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		// Log-uniform latencies spanning the bucket range plus tails.
		h.Observe(1e-5 * math.Pow(10, 6*rng.Float64()))
	}
	qs := []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999}
	prev := 0.0
	for _, q := range qs {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone: q=%v gives %v < previous %v", q, v, prev)
		}
		prev = v
	}
	if p50, p95, p99 := h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99); !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("p50/p95/p99 not monotone: %v %v %v", p50, p95, p99)
	}
	if h.Count() != 10000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	h.Observe(10) // only the +Inf bucket
	if got := h.Quantile(0.99); got != 2 {
		t.Fatalf("+Inf-bucket quantile = %v, want clamp to last bound 2", got)
	}
}

func TestHistogramQuantileSingleObservation(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	h.Observe(1.5)
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got < 1 || got > 2 {
			t.Fatalf("single observation in (1,2]: Quantile(%v) = %v, want within bucket", q, got)
		}
	}
	if got := h.Quantile(1); got != 2 {
		t.Fatalf("Quantile(1) = %v, want the bucket's upper edge 2", got)
	}
}

func TestHistogramQuantileAllInOneBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in the (1,2] bucket
	}
	// Interpolation is linear within the containing bucket: the q-quantile
	// of a single occupied bucket (lo, hi] is lo + q*(hi-lo).
	for _, tc := range []struct{ q, want float64 }{
		{0.25, 1.25}, {0.5, 1.5}, {0.75, 1.75}, {1, 2},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("all-in-one-bucket Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := h.Quantile(0.5); got < h.Quantile(0.25) || h.Quantile(0.75) < got {
		t.Fatal("within-bucket interpolation not monotone")
	}
}

func TestHistogramQuantileInfObservations(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(math.Inf(1))  // +Inf bucket
	h.Observe(math.Inf(-1)) // first bucket (-Inf <= 1)
	if got := h.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	// Low quantile resolves in the first bucket and stays finite; high
	// quantile hits the +Inf bucket and clamps to the last finite bound.
	if got := h.Quantile(0.25); math.IsInf(got, 0) || got > 1 {
		t.Fatalf("Quantile(0.25) with -Inf sample = %v, want finite <= 1", got)
	}
	if got := h.Quantile(0.99); got != 2 {
		t.Fatalf("Quantile(0.99) with +Inf sample = %v, want clamp to 2", got)
	}
}

func TestHistogramQuantileExactBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 3})
	// Boundary observations land in the bucket whose upper bound they equal
	// (bounds are inclusive upper edges), so the k/3-quantiles are exact.
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	for _, tc := range []struct{ q, want float64 }{
		{1.0 / 3, 1}, {2.0 / 3, 2}, {1, 3},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("boundary Quantile(%v) = %v, want exactly %v", tc.q, got, tc.want)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(DefBuckets)
	var wg sync.WaitGroup
	const workers, per = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(rng.Float64())
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	cum := int64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
	}
	if cum != workers*per {
		t.Fatalf("bucket total = %d, want %d", cum, workers*per)
	}
}

func TestHistogramObserveAllocFree(t *testing.T) {
	h := NewHistogram(DefBuckets)
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.01) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per op, want 0", allocs)
	}
}

func TestRegistryReusesAndValidates(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("mm_test_total", "help")
	b := r.Counter("mm_test_total", "help")
	if a != b {
		t.Fatal("same name should return the same counter")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("re-registering with a different type should panic")
			}
		}()
		r.Gauge("mm_test_total", "help")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("bad metric name should panic")
			}
		}()
		r.Counter("bad name!", "help")
	}()
}

// TestRegisterAdoptsOwnersInstrument pins Register: the series reads the
// instrument its owner keeps and bumps, the same name hands that
// instrument back, and a second instrument under it panics.
func TestRegisterAdoptsOwnersInstrument(t *testing.T) {
	r := NewRegistry()
	owned, level := new(Counter), new(Gauge)
	r.Register("mm_owned_total", "help", owned)
	r.Register("mm_owned_total", "help", owned)
	r.Register("mm_level", "help", level)
	owned.Add(3)
	level.Add(2)
	if got := r.Counter("mm_owned_total", "help"); got != owned {
		t.Fatal("Counter returned a different instrument than the registered one")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mm_owned_total 3\n", "mm_level 2\n"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition lacks %q:\n%s", want, sb.String())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second counter under one series should panic")
		}
	}()
	r.Register("mm_owned_total", "help", new(Counter))
}

// TestRuntimeStats checks the runtime series carry plausible live values.
func TestRuntimeStats(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r, time.Now().Add(-time.Second))
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	values := map[string]float64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample %q", line)
		}
		name, _, _ := strings.Cut(line[:i], "{")
		values[name] = v
	}
	if values["go_goroutines"] < 1 || values["go_heap_alloc_bytes"] <= 0 {
		t.Fatalf("implausible runtime values: %v", values)
	}
	if values["process_uptime_seconds"] < 0.9 {
		t.Fatalf("uptime = %v, want ~1s", values["process_uptime_seconds"])
	}
	if !strings.Contains(sb.String(), `build_info{go_version="go`) {
		t.Fatalf("build_info missing the go version:\n%s", sb.String())
	}
}
