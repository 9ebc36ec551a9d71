package service

import (
	"math"
	"sync"

	"mindmappings/internal/costmodel"
)

// EvalCache is an opt-in, bounded LRU memoization of reference-cost-model
// evaluations, shared by every job the service runs. Keys are the costmodel
// cache middleware's evaluator-ID-prefixed mapping encodings, so two jobs
// searching the same problem with the same backend reuse each other's
// cost-model work instead of recomputing it. It implements costmodel.Cache
// and is safe for concurrent use.
//
// It pays only in front of a backend slower than a lookup. Every
// registered backend is analytical (~0.6–0.9 µs per eval); through the
// middleware a miss adds about one more eval's worth of work (key string,
// clone, eviction, one mutex shared by every worker; see
// BenchmarkEvalCacheMiss) and a hit saves about half an eval, so below a
// hit ratio of roughly 60% the cache costs more than it saves. The
// service therefore runs without one unless serve -evalcache-cap is
// positive. A nil *EvalCache is that "no cache": Get and GetBytes miss,
// Put does nothing and Stats reads zeros.
//
// Entries live in one slot slice linked into a recency list by int32
// indices, so the cache holds no per-entry pointers of its own: a Put at
// capacity reuses the least recently used slot, and neither a Put nor an
// eviction allocates beyond the caller's key and Cost.
type EvalCache struct {
	mu       sync.Mutex
	capacity int
	slots    []evalSlot       // grows to capacity, then slots are reused
	index    map[string]int32 // key -> slot
	head     int32            // most recently used slot, or -1
	tail     int32            // least recently used slot, or -1

	hits   uint64
	misses uint64
}

// evalSlot is one cached entry and its recency-list links (slot indices,
// -1 at either end).
type evalSlot struct {
	key        string
	cost       costmodel.Cost
	prev, next int32
}

// NewEvalCache returns an empty cache holding at most capacity entries,
// or nil (no cache) if capacity <= 0. An entry costs ~0.55 KB of heap (a
// ~110 B key, its slot, one clone array, and the index entry): 65,536
// timeloop evaluations measured 35.5 MB for cnn-layer and 37.6 MB for
// mttkrp.
func NewEvalCache(capacity int) *EvalCache {
	if capacity <= 0 {
		return nil
	}
	if capacity > math.MaxInt32 {
		capacity = math.MaxInt32
	}
	return &EvalCache{
		capacity: capacity,
		index:    make(map[string]int32),
		head:     -1,
		tail:     -1,
	}
}

// Get returns the cached cost for key, marking the entry most recently
// used. The returned Cost is shared: callers must not mutate it.
func (c *EvalCache) Get(key string) (costmodel.Cost, bool) {
	if c == nil {
		return costmodel.Cost{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	return c.lookupLocked(i, ok)
}

// GetBytes is Get keyed by the raw binary key bytes (costmodel.BytesCache):
// the map index with string(key) compiles to an allocation-free lookup, so
// the shared-cache hit path costs zero allocations — the key string is
// only ever built to store a miss. key is not retained.
func (c *EvalCache) GetBytes(key []byte) (costmodel.Cost, bool) {
	if c == nil {
		return costmodel.Cost{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[string(key)]
	return c.lookupLocked(i, ok)
}

// lookupLocked counts a hit on slot i, moving it to the front, or a miss
// when the index held no slot.
func (c *EvalCache) lookupLocked(i int32, ok bool) (costmodel.Cost, bool) {
	if !ok {
		c.misses++
		return costmodel.Cost{}, false
	}
	c.hits++
	c.moveToFrontLocked(i)
	return c.slots[i].cost, true
}

// Put stores a cost under key, evicting the least recently used entry when
// the cache is full. An evicted slot takes the new entry in place; its old
// Cost is dropped, not overwritten, so a hit returned before the eviction
// stays intact.
func (c *EvalCache) Put(key string, cost costmodel.Cost) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[key]; ok {
		c.slots[i].cost = cost
		c.moveToFrontLocked(i)
		return
	}
	var i int32
	if len(c.slots) < c.capacity {
		if len(c.slots) == cap(c.slots) {
			// Grow by doubling, but never past capacity.
			grown := make([]evalSlot, len(c.slots), min(2*cap(c.slots)+16, c.capacity))
			copy(grown, c.slots)
			c.slots = grown
		}
		i = int32(len(c.slots))
		c.slots = append(c.slots, evalSlot{})
	} else {
		i = c.tail
		c.unlinkLocked(i)
		delete(c.index, c.slots[i].key)
	}
	c.slots[i].key = key
	c.slots[i].cost = cost
	c.index[key] = i
	c.pushFrontLocked(i)
}

// unlinkLocked removes slot i from the recency list.
func (c *EvalCache) unlinkLocked(i int32) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
	s.prev, s.next = -1, -1
}

// pushFrontLocked links the unlinked slot i in as most recently used.
func (c *EvalCache) pushFrontLocked(i int32) {
	s := &c.slots[i]
	s.prev, s.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// moveToFrontLocked marks slot i most recently used.
func (c *EvalCache) moveToFrontLocked(i int32) {
	if c.head != i {
		c.unlinkLocked(i)
		c.pushFrontLocked(i)
	}
}

// CacheStats is a point-in-time snapshot of cache effectiveness, exposed
// as the eval_cache_* series on /metrics.
type CacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
	// Utilization is Entries/Capacity in [0,1]: how full the bounded LRU
	// is, the signal for retuning serve -evalcache-cap.
	Utilization float64 `json:"utilization"`
}

// Stats snapshots the hit/miss counters and occupancy; all zero for a nil
// cache.
func (c *EvalCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.index), Capacity: c.capacity}
	if st.Capacity > 0 {
		st.Utilization = float64(st.Entries) / float64(st.Capacity)
	}
	return st
}
