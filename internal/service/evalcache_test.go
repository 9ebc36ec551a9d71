package service

import (
	"container/list"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
)

func TestEvalCacheHitMissCounters(t *testing.T) {
	c := NewEvalCache(4)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", costmodel.Cost{EDP: 1})
	cost, ok := c.Get("a")
	if !ok || cost.EDP != 1 {
		t.Fatalf("get a: %v %v", cost, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Capacity != 4 {
		t.Fatalf("stats %+v", st)
	}
}

// TestNilEvalCache pins the "no cache" value the service runs with by
// default: a non-positive capacity yields nil, a nil cache misses and
// stores nothing (also under concurrent use), and a manager holding it
// hands its jobs no cache at all, so costmodel.WithCache adds no layer.
func TestNilEvalCache(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		if c := NewEvalCache(capacity); c != nil {
			t.Fatalf("NewEvalCache(%d) = %p, want nil", capacity, c)
		}
	}
	var c *EvalCache
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%8)
				c.Put(key, costmodel.Cost{EDP: float64(i)})
				if _, ok := c.Get(key); ok {
					t.Errorf("nil cache hit on Get(%s)", key)
					return
				}
				if _, ok := c.GetBytes([]byte(key)); ok {
					t.Errorf("nil cache hit on GetBytes(%s)", key)
					return
				}
				if st := c.Stats(); st != (CacheStats{}) {
					t.Errorf("nil cache stats %+v, want zeros", st)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	jm := NewJobManager(NewModelRegistry(t.TempDir(), 1), NewEvalCache(0), 1, 1)
	defer jm.Shutdown(context.Background())
	cache := jm.cacheFor(&tenantInstruments{})
	if cache != nil {
		t.Fatalf("cacheFor with no cache = %#v, want a nil interface", cache)
	}
	inner, _ := cacheFixture(t, 1)
	if ev := costmodel.WithCache(inner, cache); ev != inner {
		t.Fatalf("WithCache wrapped the evaluator in %T with no cache configured", ev)
	}
}

// TestDefaultManagerPaysEveryEval runs one seeded ga job twice on a
// manager without a cache: both runs pay every evaluation and no cache
// series moves. Both results equal the same job on a caching manager
// (whose second run is all hits), because memoization changes who pays
// for an eval, never the answer.
func TestDefaultManagerPaysEveryEval(t *testing.T) {
	req := validRequest()
	req.Searcher = "ga"
	req.Evals = 300
	req.Seed = 7
	run := func(cache *EvalCache) (results []*JobResult, prom string) {
		registry := NewModelRegistry(t.TempDir(), 1)
		jm := NewJobManager(registry, cache, 1, 4)
		defer jm.Shutdown(context.Background())
		ts := httptest.NewServer(NewServer(jm, registry, cache).Handler())
		defer ts.Close()
		for i := 0; i < 2; i++ {
			job, err := jm.SubmitAs("acme", req)
			if err != nil {
				t.Fatal(err)
			}
			done, err := jm.Wait(context.Background(), job.ID)
			if err != nil {
				t.Fatal(err)
			}
			if done.Status != JobDone || done.Result == nil {
				t.Fatalf("job status %s (%s)", done.Status, done.Error)
			}
			results = append(results, done.Result)
		}
		return results, scrapeProm(t, ts)
	}

	plain, prom := run(NewEvalCache(0))
	if got := sumValues(seriesValues(t, prom, "costmodel_evals_total")); got != 2*float64(req.Evals) {
		t.Fatalf("costmodel_evals_total = %v, want %d: every eval paid", got, 2*req.Evals)
	}
	for _, family := range []string{"eval_cache_hits_total", "eval_cache_misses_total",
		"tenant_cache_hits_total", "tenant_cache_misses_total"} {
		series := seriesValues(t, prom, family)
		if len(series) == 0 {
			t.Errorf("%s missing from /metrics", family)
		}
		if got := sumValues(series); got != 0 {
			t.Errorf("%s = %v with no cache, want 0", family, got)
		}
	}

	cached, prom := run(NewEvalCache(1 << 14))
	if hits := sumValues(seriesValues(t, prom, "eval_cache_hits_total")); hits == 0 {
		t.Fatal("caching manager served no hits: the comparison is vacuous")
	}
	for i, got := range plain {
		for j, want := range cached {
			if got.BestEDP != want.BestEDP || got.Evals != want.Evals ||
				len(got.Trajectory) != len(want.Trajectory) {
				t.Fatalf("run %d without cache = (%v, %d evals, %d points), cached run %d = (%v, %d, %d)",
					i, got.BestEDP, got.Evals, len(got.Trajectory), j, want.BestEDP, want.Evals, len(want.Trajectory))
			}
			for k := range got.Trajectory {
				g, w := got.Trajectory[k], want.Trajectory[k]
				if g.Eval != w.Eval || g.BestEDP != w.BestEDP {
					t.Fatalf("run %d vs cached run %d: trajectory point %d = %+v, want %+v", i, j, k, g, w)
				}
			}
		}
	}
}

func TestEvalCacheLRUEviction(t *testing.T) {
	c := NewEvalCache(3)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), costmodel.Cost{EDP: float64(i)})
	}
	// Touch k0 so k1 is the LRU entry, then overflow.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.Put("k3", costmodel.Cost{EDP: 3})
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 survived eviction despite being LRU")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	if st := c.Stats(); st.Entries != 3 {
		t.Fatalf("entries %d", st.Entries)
	}
}

func TestEvalCacheUpdateExisting(t *testing.T) {
	c := NewEvalCache(2)
	c.Put("a", costmodel.Cost{EDP: 1})
	c.Put("a", costmodel.Cost{EDP: 2})
	if cost, _ := c.Get("a"); cost.EDP != 2 {
		t.Fatalf("update lost: %v", cost.EDP)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("duplicate entries: %d", st.Entries)
	}
}

// raceEnabled is set by race_test.go: the race detector makes sync.Pool
// drop a quarter of its items, so the middleware's pooled key buffer
// re-allocates and the allocation pins below do not hold under -race.
var raceEnabled bool

// refLRU is the reference the slot-slice cache must match exactly: the
// textbook container/list LRU.
type refLRU struct {
	capacity     int
	ll           *list.List // front = most recently used; values are keys
	items        map[string]*list.Element
	vals         map[string]float64
	hits, misses uint64
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{capacity: capacity, ll: list.New(),
		items: map[string]*list.Element{}, vals: map[string]float64{}}
}

func (r *refLRU) get(key string) (float64, bool) {
	el, ok := r.items[key]
	if !ok {
		r.misses++
		return 0, false
	}
	r.hits++
	r.ll.MoveToFront(el)
	return r.vals[key], true
}

func (r *refLRU) put(key string, v float64) {
	r.vals[key] = v
	if el, ok := r.items[key]; ok {
		r.ll.MoveToFront(el)
		return
	}
	r.items[key] = r.ll.PushFront(key)
	if r.ll.Len() > r.capacity {
		oldest := r.ll.Back()
		r.ll.Remove(oldest)
		delete(r.items, oldest.Value.(string))
		delete(r.vals, oldest.Value.(string))
	}
}

// order lists the reference's keys, most recently used first.
func (r *refLRU) order() []string {
	var out []string
	for el := r.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(string))
	}
	return out
}

// order walks the cache's recency list front to back, checking that the
// back links mirror the forward ones.
func (c *EvalCache) order(t *testing.T) []string {
	t.Helper()
	var out []string
	prev := int32(-1)
	for i := c.head; i >= 0; i = c.slots[i].next {
		if c.slots[i].prev != prev {
			t.Fatalf("slot %d prev = %d, want %d", i, c.slots[i].prev, prev)
		}
		if c.index[c.slots[i].key] != i {
			t.Fatalf("index does not point key %q at slot %d", c.slots[i].key, i)
		}
		out = append(out, c.slots[i].key)
		prev = i
	}
	if c.tail != prev {
		t.Fatalf("tail = %d, want %d", c.tail, prev)
	}
	return out
}

// TestEvalCacheMatchesReferenceLRU drives the cache and the container/list
// reference with one seeded random Get/GetBytes/Put sequence: every
// lookup, the recency order (so every eviction), and the Stats must agree.
func TestEvalCacheMatchesReferenceLRU(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		c, ref := NewEvalCache(capacity), newRefLRU(capacity)
		for op := 0; op < 5000; op++ {
			key := fmt.Sprintf("k%d", rng.Intn(3*capacity+2))
			switch rng.Intn(3) {
			case 0:
				v := rng.Float64()
				c.Put(key, costmodel.Cost{EDP: v})
				ref.put(key, v)
			case 1:
				got, ok := c.Get(key)
				want, wantOK := ref.get(key)
				if ok != wantOK || got.EDP != want {
					t.Fatalf("cap %d op %d Get(%s) = %v,%v, want %v,%v", capacity, op, key, got.EDP, ok, want, wantOK)
				}
			case 2:
				got, ok := c.GetBytes([]byte(key))
				want, wantOK := ref.get(key)
				if ok != wantOK || got.EDP != want {
					t.Fatalf("cap %d op %d GetBytes(%s) = %v,%v, want %v,%v", capacity, op, key, got.EDP, ok, want, wantOK)
				}
			}
			if got, want := c.order(t), ref.order(); !slices.Equal(got, want) {
				t.Fatalf("cap %d op %d: recency order %v, want %v", capacity, op, got, want)
			}
		}
		st := c.Stats()
		want := CacheStats{Hits: ref.hits, Misses: ref.misses, Entries: ref.ll.Len(), Capacity: capacity,
			Utilization: float64(ref.ll.Len()) / float64(capacity)}
		if st != want {
			t.Fatalf("cap %d: stats %+v, want %+v", capacity, st, want)
		}
	}
}

// cacheFixture is a conv1d evaluator with a pool of distinct mappings.
func cacheFixture(tb testing.TB, n int) (costmodel.Evaluator, []mapspace.Mapping) {
	tb.Helper()
	p, err := loopnest.NewConv1DProblem("bench", 1024, 5)
	if err != nil {
		tb.Fatal(err)
	}
	a := arch.Default(2)
	ev, err := costmodel.New("timeloop", a, p)
	if err != nil {
		tb.Fatal(err)
	}
	space, err := mapspace.New(a, p)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ms := make([]mapspace.Mapping, n)
	for i := range ms {
		ms[i] = space.Random(rng)
	}
	return ev, ms
}

// TestEvalCacheAllocs pins the allocation budget beside
// TestEvalCacheHitZeroAllocs (a warm hit allocates nothing): a Put at
// capacity allocates nothing inside the cache, and a middleware miss
// allocates only the key and the clone.
func TestEvalCacheAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	ctx := context.Background()
	inner, ms := cacheFixture(t, 24)
	var ws costmodel.Cost
	if err := inner.EvaluateInto(ctx, &ms[0], &ws); err != nil {
		t.Fatal(err)
	}

	// Keys and costs built up front, so only the cache's own work counts.
	const capacity = 8
	full := NewEvalCache(capacity)
	keys := make([]string, 4*capacity)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	cost := ws.Clone()
	for _, k := range keys[:capacity] {
		full.Put(k, cost)
	}
	next := capacity
	if got := testing.AllocsPerRun(200, func() {
		full.Put(keys[next%len(keys)], cost)
		next++
	}); got != 0 {
		t.Fatalf("Put of a new key at capacity: %v allocs, want 0", got)
	}

	// Cycling 24 mappings through 8 slots makes every lookup a miss that
	// evicts.
	missCache := NewEvalCache(capacity)
	ev := costmodel.WithCache(inner, missCache)
	i := 0
	miss := func() {
		if err := ev.EvaluateInto(ctx, &ms[i%len(ms)], &ws); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range ms {
		miss()
	}
	if got := testing.AllocsPerRun(200, miss); got > 2 {
		t.Fatalf("middleware miss: %v allocs, want <= 2 (key and clone)", got)
	}
	if st := missCache.Stats(); st.Hits != 0 || st.Entries != capacity {
		t.Fatalf("miss cycle stats %+v: want no hits and a full cache", st)
	}
}

// TestEvalCacheConcurrent hammers one small cache from several
// goroutines with Gets, GetBytes and Puts that keep it evicting, and
// checks every hit against its key: a slot reused by an eviction must
// never serve another key's cost, nor one a writer is still filling.
func TestEvalCacheConcurrent(t *testing.T) {
	c := NewEvalCache(16)
	costFor := func(k int) costmodel.Cost {
		v := float64(k)
		return costmodel.Cost{EDP: v, Accesses: [arch.NumLevels][]float64{{v}, {v}, {v}}}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				k := rng.Intn(64)
				key := fmt.Sprintf("k%d", k)
				var hit costmodel.Cost
				var ok bool
				if i%2 == 0 {
					hit, ok = c.Get(key)
				} else {
					hit, ok = c.GetBytes([]byte(key))
				}
				if !ok {
					c.Put(key, costFor(k))
					continue
				}
				for l := range hit.Accesses {
					if hit.EDP != float64(k) || hit.Accesses[l][0] != float64(k) {
						t.Errorf("hit for %s holds cost %v", key, hit.EDP)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries > 16 || st.Hits+st.Misses != 8*2000 {
		t.Fatalf("stats %+v", st)
	}
}
