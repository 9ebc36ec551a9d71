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
// Entries persist through internal/blobstore as manifest+blob records of
// one append-only segment (atlas.log), each holding an entry's manifest and
// its mapping blob (both JSON). Open migrates the older per-file layout — a
// mapping blob (<id>.mapping) plus a manifest (<id>.json) per entry — into
// it.
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
	"slices"
	"sort"
	"sync"
	"time"

	"mindmappings/internal/blobstore"
	"mindmappings/internal/mapspace"
)

const (
	// SegmentFile names the atlas segment inside the atlas directory.
	SegmentFile = "atlas.log"
	// BlobExt is the extension of mapping blob files in the per-file layout.
	BlobExt = ".mapping"
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

// Atlas is the on-disk store plus its in-memory index. Safe for
// concurrent use.
type Atlas struct {
	seg *blobstore.Segment
	// legacy is the per-file layout Open migrated from: it counts what
	// Open could not index, and its debris stays for GC to sweep.
	legacy    *blobstore.Store
	failpoint blobstore.Failpoint

	mu       sync.RWMutex
	byID     map[string]*Entry
	byKey    map[string][]*Entry          // version-ascending per key
	byFamily map[string]map[string]*Entry // family → key → best entry
}

// ErrUnknownEntry is returned by Delete for an ID the atlas does not hold.
var ErrUnknownEntry = errors.New("atlas: unknown entry")

// SetFailpoint installs (or clears, with nil) the publish failpoint used
// by fault injection; the hook fires as "atlas.publish" before any write.
func (a *Atlas) SetFailpoint(fn func(op string) error) { a.failpoint.Set(fn) }

// Open replays dir's segment (creating dir if needed) and indexes every
// committed entry, dropping a torn tail, then migrates the per-file layout
// into the segment (blobstore.OpenRecords). Per-file crash debris stays
// invisible until GC sweeps it.
func Open(dir string) (*Atlas, error) {
	seg, legacy, entries, err := blobstore.OpenRecords(dir, SegmentFile, BlobExt, decodeEntry)
	if err != nil {
		return nil, fmt.Errorf("atlas: %w", err)
	}
	a := &Atlas{
		seg:      seg,
		legacy:   legacy,
		byID:     make(map[string]*Entry),
		byKey:    make(map[string][]*Entry),
		byFamily: make(map[string]map[string]*Entry),
	}
	for _, e := range entries {
		a.indexLocked(&e)
	}
	return a, nil
}

// decodeEntry reads an entry manifest, rejecting one without its key.
func decodeEntry(raw []byte) (e Entry, id string) {
	if json.Unmarshal(raw, &e) != nil || e.Key == "" || e.Family == "" {
		return e, ""
	}
	return e, e.ID
}

// Close releases the atlas's segment file.
func (a *Atlas) Close() error { return a.seg.Close() }

// indexLocked inserts rec into all three indexes, keeping key groups
// version-ascending and the family view at each key's best. Callers hold mu.
func (a *Atlas) indexLocked(rec *Entry) {
	a.byID[rec.ID] = rec
	group := append(a.byKey[rec.Key], rec)
	sort.SliceStable(group, func(i, j int) bool { return group[i].Version < group[j].Version })
	a.byKey[rec.Key] = group
	a.reindexFamilyLocked(rec.Key, rec.Family)
}

// reindexFamilyLocked repoints (or drops) the family view of one key at
// the key group's current best record. Callers hold mu.
func (a *Atlas) reindexFamilyLocked(key, family string) {
	fam := a.byFamily[family]
	if best := a.bestLocked(key); best != nil {
		if fam == nil {
			fam = make(map[string]*Entry)
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

// bestLocked returns the key's best committed entry: lowest BestEDP,
// ties broken by the newest version. Callers hold mu.
func (a *Atlas) bestLocked(key string) *Entry {
	var best *Entry
	for _, rec := range a.byKey[key] {
		if best == nil || rec.BestEDP < best.BestEDP ||
			(rec.BestEDP == best.BestEDP && rec.Version > best.Version) {
			best = rec
		}
	}
	return best
}

// Publish commits a solved mapping, unless the atlas already holds an
// equal-or-better entry for the key ("only-if-better", DESIGN.md §11).
// One write appends the entry's record and tombstones for the entries it
// supersedes; extra entries a torn write leaves are resolved by best value
// and reaped by GC. Returns the visible entry for the key and whether this
// call committed a new one.
func (a *Atlas) Publish(e Entry, m *mapspace.Mapping) (Entry, bool, error) {
	if err := a.failpoint.Fire("atlas.publish"); err != nil {
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
	if cur != nil && cur.BestEDP <= e.BestEDP {
		return *cur, false, nil
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	if existing, ok := a.byID[e.ID]; ok {
		return *existing, false, nil
	}
	if cur := a.bestLocked(e.Key); cur != nil && cur.BestEDP <= e.BestEDP {
		return *cur, false, nil
	}
	e.Version = 1
	superseded := a.byKey[e.Key]
	if len(superseded) > 0 {
		e.Version = superseded[len(superseded)-1].Version + 1
	}
	e.Created = time.Now().UTC()
	manifest, err := json.Marshal(&e)
	if err != nil {
		return Entry{}, false, fmt.Errorf("atlas: %w", err)
	}
	drop := make([]string, len(superseded))
	for i, old := range superseded {
		drop[i] = old.ID
	}
	if err := a.seg.Put(e.ID, blobstore.EncodeRecord(manifest, blob), drop...); err != nil {
		return Entry{}, false, fmt.Errorf("atlas: %w", err)
	}
	a.indexLocked(&e)
	for _, id := range drop {
		a.unindexLocked(a.byID[id])
	}
	return e, true, nil
}

// unindexLocked drops an entry from the indexes. Callers hold mu.
func (a *Atlas) unindexLocked(rec *Entry) {
	delete(a.byID, rec.ID)
	group := slices.DeleteFunc(a.byKey[rec.Key], func(g *Entry) bool { return g == rec })
	if len(group) == 0 {
		delete(a.byKey, rec.Key)
	} else {
		a.byKey[rec.Key] = group
	}
	a.reindexFamilyLocked(rec.Key, rec.Family)
}

// blobLocked reads the mapping blob of a committed entry from the
// segment. Callers hold mu, at least for reading, from picking the entry
// to this read: Publish tombstones what it supersedes under the write lock,
// so the entry cannot vanish in between.
func (a *Atlas) blobLocked(e *Entry) ([]byte, error) {
	payload, ok, err := a.seg.Get(e.ID)
	if err == nil && !ok {
		err = fmt.Errorf("%w: %q", ErrUnknownEntry, e.ID)
	}
	if err != nil {
		return nil, fmt.Errorf("atlas: %w", err)
	}
	_, blob, _ := blobstore.SplitRecord(payload) // Open and Publish checked the split
	return blob, nil
}

// decodeMapping decodes the blob of entry id into a fresh mapping.
func decodeMapping(id string, blob []byte) (mapspace.Mapping, error) {
	var m mapspace.Mapping
	if err := json.Unmarshal(blob, &m); err != nil {
		return mapspace.Mapping{}, fmt.Errorf("atlas: entry %s: %w", id, err)
	}
	return m, nil
}

// Lookup is the exact-hit read path: the best committed entry for the key
// plus its mapping, decoded from the segment.
func (a *Atlas) Lookup(key string) (Entry, mapspace.Mapping, bool, error) {
	a.mu.RLock()
	rec := a.bestLocked(key)
	var blob []byte
	var err error
	if rec != nil {
		blob, err = a.blobLocked(rec)
	}
	a.mu.RUnlock()
	if rec == nil || err != nil {
		return Entry{}, mapspace.Mapping{}, false, err
	}
	m, err := decodeMapping(rec.ID, blob)
	if err != nil {
		return Entry{}, mapspace.Mapping{}, false, err
	}
	return *rec, m, true, nil
}

// Best returns the best committed entry for the key without reading its
// mapping: a caller that kept what it derived from an entry ID (which
// names one immutable mapping) checks here whether that is still current.
func (a *Atlas) Best(key string) (Entry, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if rec := a.bestLocked(key); rec != nil {
		return *rec, true
	}
	return Entry{}, false
}

// Nearest is the warm-start read path: among the family's entries whose
// shape differs from the target, the one at minimum ShapeDistance (ties
// broken by key for determinism), with its mapping decoded from the segment.
// Callers re-project the mapping into the target shape's map space.
func (a *Atlas) Nearest(family string, shape []int) (Entry, mapspace.Mapping, float64, bool, error) {
	a.mu.RLock()
	var best *Entry
	bestDist := math.Inf(1)
	for _, rec := range a.byFamily[family] {
		if slices.Equal(rec.Shape, shape) {
			continue
		}
		d := ShapeDistance(rec.Shape, shape)
		if d < bestDist || (d == bestDist && best != nil && rec.Key < best.Key) {
			bestDist = d
			best = rec
		}
	}
	if best == nil || math.IsInf(bestDist, 0) {
		a.mu.RUnlock()
		return Entry{}, mapspace.Mapping{}, 0, false, nil
	}
	blob, err := a.blobLocked(best)
	a.mu.RUnlock()
	if err != nil {
		return Entry{}, mapspace.Mapping{}, 0, false, err
	}
	m, err := decodeMapping(best.ID, blob)
	if err != nil {
		return Entry{}, mapspace.Mapping{}, 0, false, err
	}
	return *best, m, bestDist, true, nil
}

// List returns every committed entry, ordered by workload, then key, then
// version — the `mindmappings atlas` listing order.
func (a *Atlas) List() []Entry {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]Entry, 0, len(a.byID))
	for _, rec := range a.byID {
		out = append(out, *rec)
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
	if err := a.seg.Delete(id); err != nil {
		return fmt.Errorf("atlas: %w", err)
	}
	a.unindexLocked(rec)
	return nil
}

// GC removes superseded per-key versions (all but each key's best) and the
// entries the stale predicate condemns (drifted workload fingerprints,
// say; nil keeps all) with one write of tombstones, then sweeps the
// per-file layout's debris and resets the corrupt count. It returns the
// removed entry IDs in ID order, then the debris file names.
func (a *Atlas) GC(stale func(Entry) bool) ([]string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var victims []*Entry
	for key, group := range a.byKey {
		best := a.bestLocked(key)
		for _, rec := range group {
			if rec != best || (stale != nil && stale(*rec)) {
				victims = append(victims, rec)
			}
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].ID < victims[j].ID })
	var removed []string
	for _, rec := range victims {
		removed = append(removed, rec.ID)
	}
	if err := a.seg.Delete(removed...); err != nil {
		return nil, fmt.Errorf("atlas: gc: %w", err)
	}
	for _, rec := range victims {
		a.unindexLocked(rec)
	}
	debris, err := a.legacy.Sweep()
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
	// Corrupt counts what Open could not index and GC has not swept or
	// reset yet: per-file manifests that are unreadable, uncommitted or
	// misnamed, and a torn or CRC-bad segment tail.
	Corrupt int `json:"corrupt"`
}

// Stats snapshots index counters.
func (a *Atlas) Stats() Stats {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return Stats{Entries: len(a.byID), Keys: len(a.byKey), Families: len(a.byFamily), Corrupt: a.legacy.Corrupt()}
}
