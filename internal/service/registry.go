package service

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mindmappings/internal/modelstore"
	"mindmappings/internal/obs"
	"mindmappings/internal/surrogate"
)

// ModelRegistry loads trained Phase-1 surrogates from a directory once and
// shares them across all concurrent search jobs. Loads happen lazily on
// first use behind an RWMutex (reads — the overwhelmingly common case once
// a model is warm — take only the read lock), and a small LRU bound evicts
// cold models so a server pointed at a large model zoo does not hold every
// network in memory.
//
// Surrogate prediction is concurrency-safe (see surrogate.Surrogate), so
// one loaded model can serve any number of jobs simultaneously.
type ModelRegistry struct {
	dir      string
	capacity int
	// store, when attached, serves content-addressed artifacts: a Get
	// whose name matches a store artifact ID loads the immutable blob
	// through the store instead of scanning the raw directory.
	store *modelstore.Store

	mu     sync.RWMutex
	loaded map[string]*regEntry
	useSeq atomic.Uint64 // monotonic use clock for LRU ordering
	// loads counts disk loads and evicted the models the LRU bound drops;
	// NewServer registers both as they are.
	loads, evicted *obs.Counter

	loadMu  sync.Mutex // guards loading; never held during disk I/O
	loading map[string]*loadCall
}

// loadCall deduplicates concurrent cold loads of one model (singleflight):
// the leader reads the disk with no registry lock held, so warm Gets,
// and List never stall behind a slow load.
type loadCall struct {
	done chan struct{}
	sur  *surrogate.Surrogate
	err  error
}

type regEntry struct {
	sur  *surrogate.Surrogate
	used atomic.Uint64 // useSeq at last Get; atomic so hits stay on the read lock
	// Raw-file staleness detection: the file identity at load time. A
	// model republished under the same name (new mtime or size) is
	// detected on the next Get and reloaded instead of being served from
	// the old in-memory copy forever. Store-backed entries are
	// content-addressed and immutable, so they skip the check.
	immutable bool
	mtime     time.Time
	size      int64
}

// DefaultRegistryCapacity bounds the number of simultaneously loaded
// surrogates when the caller passes a non-positive capacity.
const DefaultRegistryCapacity = 8

// NewModelRegistry returns a registry serving surrogate files from dir.
func NewModelRegistry(dir string, capacity int) *ModelRegistry {
	if capacity <= 0 {
		capacity = DefaultRegistryCapacity
	}
	return &ModelRegistry{
		dir:      dir,
		capacity: capacity,
		loaded:   make(map[string]*regEntry),
		loading:  make(map[string]*loadCall),
		loads:    new(obs.Counter),
		evicted:  new(obs.Counter),
	}
}

// validName rejects names that could escape the registry directory.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("service: empty model name")
	}
	if strings.ContainsAny(name, `/\`) || name != filepath.Base(name) || strings.HasPrefix(name, ".") {
		return fmt.Errorf("service: invalid model name %q", name)
	}
	return nil
}

// AttachStore connects a versioned artifact store: names matching store
// artifact IDs resolve through it (immutable, no staleness checks), with
// raw files in the registry directory still served as before.
func (r *ModelRegistry) AttachStore(st *modelstore.Store) {
	r.mu.Lock()
	r.store = st
	r.mu.Unlock()
}

// Store returns the attached artifact store, or nil.
func (r *ModelRegistry) Store() *modelstore.Store {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.store
}

// Get returns the surrogate stored under name — a store artifact ID when a
// store is attached and has one, otherwise a file name inside the registry
// directory — loading it on first use and reloading raw files whose bytes
// changed on disk since.
func (r *ModelRegistry) Get(name string) (*surrogate.Surrogate, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	if sur, ok := r.lookup(name); ok {
		return sur, nil
	}

	// Cold path. Join an in-flight load of the same model, or become the
	// leader for it; the leader reads the disk with no registry lock held.
	r.loadMu.Lock()
	if sur, ok := r.lookup(name); ok { // loaded while waiting for loadMu
		r.loadMu.Unlock()
		return sur, nil
	}
	if c, ok := r.loading[name]; ok {
		r.loadMu.Unlock()
		<-c.done
		return c.sur, c.err
	}
	c := &loadCall{done: make(chan struct{})}
	r.loading[name] = c
	r.loadMu.Unlock()

	var entry *regEntry
	entry, c.err = r.loadFromDisk(name)
	if c.err == nil {
		c.sur = entry.sur
		r.insert(name, entry)
	}
	r.loadMu.Lock()
	delete(r.loading, name)
	r.loadMu.Unlock()
	close(c.done)
	return c.sur, c.err
}

// lookup returns a warm model under the read lock, bumping its LRU clock.
// Mutable (raw-file) entries are stat-checked against the disk: a changed
// mtime or size drops the entry so the caller falls through to a fresh
// load — the republish-staleness fix.
func (r *ModelRegistry) lookup(name string) (*surrogate.Surrogate, bool) {
	r.mu.RLock()
	e, ok := r.loaded[name]
	if ok && !e.immutable {
		if fi, err := os.Stat(filepath.Join(r.dir, name)); err != nil || !fi.ModTime().Equal(e.mtime) || fi.Size() != e.size {
			r.mu.RUnlock()
			r.invalidate(name, e)
			return nil, false
		}
	}
	if ok {
		e.used.Store(r.useSeq.Add(1))
	}
	r.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return e.sur, true
}

// invalidate drops a stale entry (only if it is still the same entry, so a
// concurrent reload is never clobbered).
func (r *ModelRegistry) invalidate(name string, stale *regEntry) {
	r.mu.Lock()
	if cur, ok := r.loaded[name]; ok && cur == stale {
		delete(r.loaded, name)
	}
	r.mu.Unlock()
}

// Invalidate drops any cached entry for name, so the next Get reloads (or
// fails) against the current disk state. Callers that remove store
// artifacts (DELETE /v1/models, GC) use it to keep the registry from
// serving deleted models out of memory.
func (r *ModelRegistry) Invalidate(name string) {
	r.mu.Lock()
	delete(r.loaded, name)
	r.mu.Unlock()
}

// loadFromDisk deserializes one model: a store artifact when the attached
// store knows the name, else a raw surrogate file in the registry
// directory (whose identity is recorded for staleness detection). No
// registry locks are held during I/O.
func (r *ModelRegistry) loadFromDisk(name string) (*regEntry, error) {
	if st := r.Store(); st != nil {
		if _, ok := st.Get(name); ok {
			sur, err := st.Load(name)
			if err != nil {
				return nil, fmt.Errorf("service: %w", err)
			}
			return &regEntry{sur: sur, immutable: true}, nil
		}
	}
	path := filepath.Join(r.dir, name)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("service: model %q: %w", name, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("service: model %q: %w", name, err)
	}
	sur, err := surrogate.Load(f)
	if err != nil {
		return nil, fmt.Errorf("service: model %q: %w", name, err)
	}
	return &regEntry{sur: sur, mtime: fi.ModTime(), size: fi.Size()}, nil
}

// insert registers a freshly loaded model and evicts beyond capacity.
func (r *ModelRegistry) insert(name string, e *regEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.loads.Inc()
	e.used.Store(r.useSeq.Add(1))
	r.loaded[name] = e
	for len(r.loaded) > r.capacity {
		oldestName, oldest := "", uint64(0)
		first := true
		for n, en := range r.loaded {
			if n == name {
				continue // never evict the model just requested
			}
			if u := en.used.Load(); first || u < oldest {
				oldestName, oldest, first = n, u, false
			}
		}
		if oldestName == "" {
			break
		}
		delete(r.loaded, oldestName)
		r.evicted.Inc()
	}
}

// ModelInfo describes one surrogate file the registry can serve.
type ModelInfo struct {
	Name   string `json:"name"`
	Algo   string `json:"algo,omitempty"`
	SizeB  int64  `json:"size_bytes"`
	Loaded bool   `json:"loaded"`
}

// List scans the registry directory and reports every regular file along
// with whether it is currently loaded. Algo is only known for loaded
// models (listing does not force a load).
func (r *ModelRegistry) List() ([]ModelInfo, error) {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("service: listing models: %w", err)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []ModelInfo
	for _, de := range entries {
		if de.IsDir() || strings.HasPrefix(de.Name(), ".") {
			continue
		}
		info := ModelInfo{Name: de.Name()}
		if fi, err := de.Info(); err == nil {
			info.SizeB = fi.Size()
		}
		if e, ok := r.loaded[de.Name()]; ok {
			info.Loaded = true
			info.Algo = e.sur.AlgoName
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// resident reports how many surrogates are loaded.
func (r *ModelRegistry) resident() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.loaded)
}
