// Package atlas is a persistent, fingerprint-indexed store of solved
// mappings: the Paperscape pattern of precomputing answers offline and
// serving lookups online. Each entry binds one exact search identity —
// workload fingerprint × accelerator fingerprint × cost-model backend ×
// objective × problem shape — to the best mapping found for it and that
// mapping's normalized objective value, so a repeated /v1/search request
// can be answered in microseconds instead of re-running a descent.
//
// Entries are grouped two ways. The Key is the exact identity: a lookup
// hit means the stored mapping answers the request outright. The Family
// drops the shape, grouping every solved instance of the same workload,
// arch, cost model, and objective: on a key miss, Nearest finds the
// same-family entry whose shape is closest in log2 space, and the caller
// re-projects its mapping into the target map space as a warm start
// ("Demystifying Map Space Exploration for NPUs" observes that good
// mappings transfer across similar shapes).
//
// Entries persist through internal/blobstore as a mapping blob
// (<id>.mapping, JSON) plus a manifest (<id>.json).
package atlas

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"mindmappings/internal/blobstore"
	"mindmappings/internal/mapspace"
)

const (
	// BlobExt is the extension of mapping blob files.
	BlobExt = ".mapping"
	// ManifestExt is the extension of entry manifest files.
	ManifestExt = blobstore.ManifestExt
)

// Entry is the manifest of one solved mapping. The ID is content-derived
// (key + blob bytes), so republishing an identical solution is a no-op.
type Entry struct {
	ID string `json:"id"`
	// Key is the exact search identity this mapping answers; Family is
	// the shape-independent prefix of it (see Key).
	Key    string `json:"key"`
	Family string `json:"family"`
	// Provenance: the pieces the key was derived from, kept readable so
	// `mindmappings atlas` listings and GC staleness checks don't need to
	// invert a hash.
	Algo      string `json:"algo"`
	AlgoFP    string `json:"algo_fp"`
	ArchFP    string `json:"arch_fp"`
	CostModel string `json:"cost_model"`
	Objective string `json:"objective"`
	Shape     []int  `json:"shape"`
	// BestEDP is the normalized objective value of the stored mapping —
	// the comparison basis for only-if-better write-back.
	BestEDP float64   `json:"best_edp"`
	Evals   int       `json:"evals"`
	Method  string    `json:"method"`
	Source  string    `json:"source,omitempty"` // "build" (offline sweep) or "serve" (write-back)
	Version int       `json:"version"`          // per-key publish sequence
	Created time.Time `json:"created"`
}

// Key derives the exact-entry key and its shape-independent family from a
// search identity. All inputs are length-prefixed before hashing so no
// concatenation of fields can collide with another; the family hash is
// the prefix of the key hash input, making key membership in a family a
// structural fact rather than a convention.
func Key(algoFP, archFP, costModel, objective string, shape []int) (key, family string) {
	var buf []byte
	for _, s := range []string{algoFP, archFP, costModel, objective} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	fsum := sha256.Sum256(buf)
	family = hex.EncodeToString(fsum[:8])

	buf = append(buf[:0], fsum[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(shape)))
	for _, size := range shape {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(size))
	}
	ksum := sha256.Sum256(buf)
	return hex.EncodeToString(ksum[:8]), family
}

// ShapeDistance is the neighbor metric: Euclidean distance between shapes
// in log2 space, so "twice as large" costs the same step in every
// dimension and at every scale. Mismatched lengths are infinitely far
// apart (they cannot belong to the same algorithm).
func ShapeDistance(a, b []int) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var sum float64
	for i := range a {
		d := math.Log2(float64(a[i])) - math.Log2(float64(b[i]))
		sum += d * d
	}
	return math.Sqrt(sum)
}

// record is an indexed entry plus its lazily loaded, cached mapping.
type record struct {
	e       Entry
	mapping *mapspace.Mapping // decoded on first Lookup/Nearest, then cached
}

// Atlas is the on-disk store plus its in-memory index. Safe for
// concurrent use.
type Atlas struct {
	blobs *blobstore.Store

	mu       sync.RWMutex
	byID     map[string]*record
	byKey    map[string][]*record          // version-ascending per key
	byFamily map[string]map[string]*record // family → key → best record
}

// ErrUnknownEntry is returned by Delete for an ID the atlas does not hold.
var ErrUnknownEntry = errors.New("atlas: unknown entry")

// SetFailpoint installs (or clears, with nil) the publish failpoint used
// by fault injection; the hook fires as "atlas.publish" before any write.
func (a *Atlas) SetFailpoint(fn func(op string) error) { a.blobs.Failpoint.Set(fn) }

// Open scans dir (creating it if needed) and indexes every committed
// entry; crash debris stays invisible until GC sweeps it.
func Open(dir string) (*Atlas, error) {
	blobs, entries, err := blobstore.Open(dir, BlobExt, func(raw []byte) (e Entry, id string) {
		if json.Unmarshal(raw, &e) != nil || e.Key == "" || e.Family == "" {
			return e, ""
		}
		return e, e.ID
	})
	if err != nil {
		return nil, fmt.Errorf("atlas: %w", err)
	}
	a := &Atlas{
		blobs:    blobs,
		byID:     make(map[string]*record),
		byKey:    make(map[string][]*record),
		byFamily: make(map[string]map[string]*record),
	}
	for _, e := range entries {
		a.indexLocked(&record{e: e})
	}
	return a, nil
}

// indexLocked inserts rec into all three indexes, keeping key groups
// version-ascending and the family view at each key's best. Callers hold mu.
func (a *Atlas) indexLocked(rec *record) {
	a.byID[rec.e.ID] = rec
	group := append(a.byKey[rec.e.Key], rec)
	sort.SliceStable(group, func(i, j int) bool { return group[i].e.Version < group[j].e.Version })
	a.byKey[rec.e.Key] = group
	a.reindexFamilyLocked(rec.e.Key, rec.e.Family)
}

// reindexFamilyLocked repoints (or drops) the family view of one key at
// the key group's current best record. Callers hold mu.
func (a *Atlas) reindexFamilyLocked(key, family string) {
	fam := a.byFamily[family]
	if best := a.bestLocked(key); best != nil {
		if fam == nil {
			fam = make(map[string]*record)
			a.byFamily[family] = fam
		}
		fam[key] = best
		return
	}
	delete(fam, key)
	if len(fam) == 0 {
		delete(a.byFamily, family)
	}
}

// bestLocked returns the key's best committed record: lowest BestEDP,
// ties broken by the newest version. Callers hold mu.
func (a *Atlas) bestLocked(key string) *record {
	var best *record
	for _, rec := range a.byKey[key] {
		if best == nil || rec.e.BestEDP < best.e.BestEDP ||
			(rec.e.BestEDP == best.e.BestEDP && rec.e.Version > best.e.Version) {
			best = rec
		}
	}
	return best
}

// Publish commits a solved mapping, unless the atlas already holds an
// equal-or-better entry for the key ("only-if-better", DESIGN.md §11),
// then deletes the superseded entries best-effort; extra entries a crash
// leaves are resolved by best value and reaped by GC. Returns the visible
// entry for the key and whether this call committed a new one.
func (a *Atlas) Publish(e Entry, m *mapspace.Mapping) (Entry, bool, error) {
	if err := a.blobs.Failpoint.Fire("atlas.publish"); err != nil {
		return Entry{}, false, err
	}
	if e.Key == "" || e.Family == "" {
		return Entry{}, false, errors.New("atlas: publish needs the entry key and family")
	}
	if m == nil || len(m.Spatial) == 0 {
		return Entry{}, false, errors.New("atlas: publish needs a complete mapping")
	}
	if math.IsNaN(e.BestEDP) || math.IsInf(e.BestEDP, 0) || e.BestEDP <= 0 {
		return Entry{}, false, fmt.Errorf("atlas: publish with unusable objective value %v", e.BestEDP)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		return Entry{}, false, fmt.Errorf("atlas: %w", err)
	}
	// The ID covers the key as well as the blob: the same mapping solved
	// under two identities (say, two objectives) must yield two entries.
	sum := sha256.New()
	sum.Write([]byte(e.Key))
	sum.Write(blob)
	e.ID = hex.EncodeToString(sum.Sum(nil))[:16]

	a.mu.RLock()
	cur := a.bestLocked(e.Key)
	a.mu.RUnlock()
	if cur != nil && cur.e.BestEDP <= e.BestEDP {
		return cur.e, false, nil
	}

	// Stage the blob outside the lock — lookups on the serving path never
	// stall behind a publication.
	tmp, err := a.blobs.Stage(blob)
	if err != nil {
		return Entry{}, false, fmt.Errorf("atlas: %w", err)
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	if existing, ok := a.byID[e.ID]; ok {
		a.blobs.Discard(tmp)
		return existing.e, false, nil
	}
	if cur := a.bestLocked(e.Key); cur != nil && cur.e.BestEDP <= e.BestEDP {
		a.blobs.Discard(tmp)
		return cur.e, false, nil
	}
	e.Version = 1
	if group := a.byKey[e.Key]; len(group) > 0 {
		e.Version = group[len(group)-1].e.Version + 1
	}
	e.Created = time.Now().UTC()
	raw, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		a.blobs.Discard(tmp)
		return Entry{}, false, fmt.Errorf("atlas: %w", err)
	}
	if err := a.blobs.Commit(tmp, e.ID, raw); err != nil {
		return Entry{}, false, fmt.Errorf("atlas: %w", err)
	}
	cached := m.Clone()
	superseded := slices.Clone(a.byKey[e.Key])
	a.indexLocked(&record{e: e, mapping: &cached})
	for _, old := range superseded {
		a.removeLocked(old) // best-effort tidy; GC handles crash leftovers
	}
	return e, true, nil
}

// removeLocked deletes a record from disk and the indexes. Callers hold mu.
func (a *Atlas) removeLocked(rec *record) error {
	if err := a.blobs.Remove(rec.e.ID); err != nil {
		return fmt.Errorf("atlas: %w", err)
	}
	delete(a.byID, rec.e.ID)
	group := slices.DeleteFunc(a.byKey[rec.e.Key], func(g *record) bool { return g == rec })
	if len(group) == 0 {
		delete(a.byKey, rec.e.Key)
	} else {
		a.byKey[rec.e.Key] = group
	}
	a.reindexFamilyLocked(rec.e.Key, rec.e.Family)
	return nil
}

// mappingOf returns a private clone of the record's mapping, decoding and
// caching it on first use.
func (a *Atlas) mappingOf(rec *record) (mapspace.Mapping, error) {
	a.mu.RLock()
	m := rec.mapping
	a.mu.RUnlock()
	if m == nil {
		raw, err := os.ReadFile(a.blobs.BlobPath(rec.e.ID))
		if err != nil {
			return mapspace.Mapping{}, fmt.Errorf("atlas: %w", err)
		}
		var decoded mapspace.Mapping
		if err := json.Unmarshal(raw, &decoded); err != nil {
			return mapspace.Mapping{}, fmt.Errorf("atlas: entry %s: %w", rec.e.ID, err)
		}
		a.mu.Lock()
		if rec.mapping == nil {
			rec.mapping = &decoded
		}
		m = rec.mapping
		a.mu.Unlock()
	}
	return m.Clone(), nil
}

// Lookup is the exact-hit read path: the best committed entry for the key
// plus a private clone of its mapping.
func (a *Atlas) Lookup(key string) (Entry, mapspace.Mapping, bool, error) {
	a.mu.RLock()
	rec := a.bestLocked(key)
	a.mu.RUnlock()
	if rec == nil {
		return Entry{}, mapspace.Mapping{}, false, nil
	}
	m, err := a.mappingOf(rec)
	if err != nil {
		return Entry{}, mapspace.Mapping{}, false, err
	}
	return rec.e, m, true, nil
}

// Best returns the best committed entry for the key without reading its
// mapping: a caller that kept what it derived from an entry ID (which
// names one immutable mapping) checks here whether that is still current.
func (a *Atlas) Best(key string) (Entry, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if rec := a.bestLocked(key); rec != nil {
		return rec.e, true
	}
	return Entry{}, false
}

// Get returns the committed entry with the given ID.
func (a *Atlas) Get(id string) (Entry, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if rec, ok := a.byID[id]; ok {
		return rec.e, true
	}
	return Entry{}, false
}

// Nearest is the warm-start read path: among the family's entries whose
// shape differs from the target, the one at minimum ShapeDistance (ties
// broken by key for determinism), with a private clone of its mapping.
// Callers re-project the mapping into the target shape's map space.
func (a *Atlas) Nearest(family string, shape []int) (Entry, mapspace.Mapping, float64, bool, error) {
	a.mu.RLock()
	var best *record
	bestDist := math.Inf(1)
	for _, rec := range a.byFamily[family] {
		if slices.Equal(rec.e.Shape, shape) {
			continue
		}
		d := ShapeDistance(rec.e.Shape, shape)
		if d < bestDist || (d == bestDist && best != nil && rec.e.Key < best.e.Key) {
			bestDist = d
			best = rec
		}
	}
	a.mu.RUnlock()
	if best == nil || math.IsInf(bestDist, 0) {
		return Entry{}, mapspace.Mapping{}, 0, false, nil
	}
	m, err := a.mappingOf(best)
	if err != nil {
		return Entry{}, mapspace.Mapping{}, 0, false, err
	}
	return best.e, m, bestDist, true, nil
}

// List returns every committed entry, ordered by workload, then key, then
// version — the `mindmappings atlas` listing order.
func (a *Atlas) List() []Entry {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]Entry, 0, len(a.byID))
	for _, rec := range a.byID {
		out = append(out, rec.e)
	}
	slices.SortFunc(out, func(x, y Entry) int {
		return cmp.Or(cmp.Compare(x.Algo, y.Algo), cmp.Compare(x.Key, y.Key), x.Version-y.Version)
	})
	return out
}

// Delete removes one entry by ID.
func (a *Atlas) Delete(id string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	rec, ok := a.byID[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEntry, id)
	}
	return a.removeLocked(rec)
}

// GC removes superseded per-key versions (all but each key's best), the
// entries the stale predicate condemns (drifted workload fingerprints,
// say; nil keeps all), then crash debris. It returns the removed entry IDs
// in ID order, then the debris file names.
func (a *Atlas) GC(stale func(Entry) bool) ([]string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var victims []*record
	for key, group := range a.byKey {
		best := a.bestLocked(key)
		for _, rec := range group {
			if rec != best || (stale != nil && stale(rec.e)) {
				victims = append(victims, rec)
			}
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].e.ID < victims[j].e.ID })
	var removed []string
	for _, rec := range victims {
		if err := a.removeLocked(rec); err != nil {
			return removed, err
		}
		removed = append(removed, rec.e.ID)
	}
	debris, err := a.blobs.Sweep(func(id string) bool { _, ok := a.byID[id]; return ok })
	if err != nil {
		err = fmt.Errorf("atlas: gc: %w", err)
	}
	return append(removed, debris...), err
}

// Stats is a point-in-time atlas snapshot for listings and the service's
// atlas_entries and atlas_corrupt_manifests series.
type Stats struct {
	// Entries counts committed entries; Keys counts distinct exact
	// identities; Families counts shape-independent groups.
	Entries  int `json:"entries"`
	Keys     int `json:"keys"`
	Families int `json:"families"`
	// Corrupt counts manifests Open skipped as unreadable, uncommitted,
	// or misnamed and GC has not swept yet.
	Corrupt int `json:"corrupt"`
}

// Stats snapshots index counters.
func (a *Atlas) Stats() Stats {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return Stats{Entries: len(a.byID), Keys: len(a.byKey), Families: len(a.byFamily), Corrupt: a.blobs.Corrupt()}
}
