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
	"hash/maphash"
	"math"
	"slices"
	"strings"
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
//
// The index keeps each committed entry as one slot of a slice, with what
// entries share held once per atlas: the provenance strings are interned,
// every shape lies in one slab, the log2 of each distinct size is taken
// once, and byKey, byID and the family lists hold slot numbers. See
// DESIGN.md §11.
type Atlas struct {
	seg *blobstore.Segment
	// legacy is the per-file layout Open migrated from: it counts what
	// Open could not index, and its debris stays for GC to sweep.
	legacy    *blobstore.Store
	failpoint blobstore.Failpoint

	mu    sync.RWMutex
	slots []slot
	free  []int32 // slots that hold no entry, for reuse
	// byKey finds the slot of each key's best entry; byID finds every
	// committed entry's slot.
	byKey, byID table
	// extra lists the slots of versions that are not their key's best:
	// only a migration, or a crash between a publish and its tombstones,
	// leaves a key more than one version.
	extra []int32
	// families maps a family to the slots of its keys' best entries, the
	// list Nearest scans.
	families map[string][]int32
	provs    []provenance
	provOf   map[provenance]int32
	// shapes is a slab: a slot's shape is shapes[s.shape:][:dims], and
	// dimLog[s.shape:][:dims] indexes the log2 of each of its sizes in
	// logs. A removed entry's sizes stay until dead passes half the slab,
	// which is then copied afresh, so a Shape an Entry returned never
	// changes.
	shapes []int
	dimLog []int32
	dead   int
	// logs holds the log2 of every distinct size the atlas has indexed,
	// and logOf the index of each size's.
	logs  []float64
	logOf map[int]int32
}

// slot is one committed entry, without what it shares with its
// provenance.
type slot struct {
	// keyID is the entry's key followed by its ID, in one allocation; the
	// segment's index shares the ID half of one this atlas published.
	keyID   string
	best    float64
	created int64 // Unix nanoseconds; 0 for the zero Time
	evals   int
	version int
	prov    int32 // index in provs; -1 for a free slot
	shape   int32 // offset in shapes and dimLog
}

// provenance is what an entry shares with every other of its family,
// method and source: interned, it costs an entry one index. It includes
// the lengths of the entry's shape and key, which every entry of a family
// shares as well.
type provenance struct {
	family, algo, algoFP, archFP, costModel, objective, method, source string
	dims, keyLen                                                       int
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
	dims := 0
	for i := range entries {
		dims += len(entries[i].Shape)
	}
	a := &Atlas{
		seg:      seg,
		legacy:   legacy,
		slots:    make([]slot, 0, len(entries)),
		families: make(map[string][]int32),
		provOf:   make(map[provenance]int32),
		shapes:   make([]int, 0, dims),
		dimLog:   make([]int32, 0, dims),
		logOf:    make(map[int]int32),
	}
	seed := maphash.MakeSeed()
	a.byKey = newTable(seed, len(entries), a.key)
	a.byID = newTable(seed, len(entries), a.id)
	for i := range entries {
		a.indexLocked(&entries[i])
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

// entryLocked assembles the Entry in slot s. Its Shape is a view of the
// slab, so assembling one allocates nothing. Callers hold mu.
func (a *Atlas) entryLocked(s int32) Entry {
	sl := &a.slots[s]
	p := &a.provs[sl.prov]
	var created time.Time
	if sl.created != 0 {
		created = time.Unix(0, sl.created).UTC()
	}
	end := int(sl.shape) + p.dims
	return Entry{
		ID: sl.keyID[p.keyLen:], Key: sl.keyID[:p.keyLen], Family: p.family,
		Algo: p.algo, AlgoFP: p.algoFP, ArchFP: p.archFP, CostModel: p.costModel, Objective: p.objective,
		Shape:   a.shapes[sl.shape:end:end],
		BestEDP: sl.best, Evals: sl.evals, Method: p.method, Source: p.source,
		Version: sl.version, Created: created,
	}
}

// key, id and family read slot s's entry's. Callers hold mu.
func (a *Atlas) key(s int32) string    { return a.slots[s].keyID[:a.provs[a.slots[s].prov].keyLen] }
func (a *Atlas) id(s int32) string     { return a.slots[s].keyID[a.provs[a.slots[s].prov].keyLen:] }
func (a *Atlas) family(s int32) string { return a.provs[a.slots[s].prov].family }

// better reports whether slot s's entry beats slot t's as their key's
// best: a lower BestEDP, then the newer version, then the one indexed
// first (slots are taken in index order while Open runs, and only Open
// leaves a key more than one version). Callers hold mu.
func (a *Atlas) better(s, t int32) bool {
	x, y := &a.slots[s], &a.slots[t]
	return cmp.Or(cmp.Compare(x.best, y.best), cmp.Compare(y.version, x.version), cmp.Compare(s, t)) < 0
}

// addLocked puts e, whose keyID is its key and then its ID, in a free
// slot, interning its provenance and filing its ID; the caller links it as
// its key's best or as an extra version. Callers hold mu for writing.
func (a *Atlas) addLocked(e *Entry, keyID string) int32 {
	p := provenance{e.Family, e.Algo, e.AlgoFP, e.ArchFP, e.CostModel, e.Objective, e.Method, e.Source, len(e.Shape), len(e.Key)}
	pi, ok := a.provOf[p]
	if !ok {
		pi = int32(len(a.provs))
		a.provs = append(a.provs, p)
		a.provOf[p] = pi
	}
	sl := slot{keyID: keyID, best: e.BestEDP, evals: e.Evals, version: e.Version, prov: pi, shape: int32(len(a.shapes))}
	if !e.Created.IsZero() {
		sl.created = e.Created.UnixNano()
	}
	a.shapes = append(a.shapes, e.Shape...)
	for _, size := range e.Shape {
		li, ok := a.logOf[size]
		if !ok {
			li = int32(len(a.logs))
			a.logs = append(a.logs, math.Log2(float64(size)))
			a.logOf[size] = li
		}
		a.dimLog = append(a.dimLog, li)
	}
	var s int32
	if n := len(a.free); n > 0 {
		s, a.free = a.free[n-1], a.free[:n-1]
		a.slots[s] = sl
	} else {
		s = int32(len(a.slots))
		a.slots = append(a.slots, sl)
	}
	a.byID.put(s)
	return s
}

// releaseLocked frees slot s, which no index but byID holds, and copies
// the slabs afresh once removed entries hold half of them. Callers hold
// mu for writing.
func (a *Atlas) releaseLocked(s int32) {
	a.byID.remove(s)
	a.dead += a.provs[a.slots[s].prov].dims
	a.slots[s] = slot{prov: -1}
	a.free = append(a.free, s)
	if a.dead < 1024 || 2*a.dead < len(a.shapes) {
		return
	}
	live := len(a.shapes) - a.dead
	shapes, dimLog := make([]int, 0, live), make([]int32, 0, live)
	for i := range a.slots {
		sl := &a.slots[i]
		if sl.prov < 0 {
			continue
		}
		off, end := int(sl.shape), int(sl.shape)+a.provs[sl.prov].dims
		sl.shape = int32(len(shapes))
		shapes = append(shapes, a.shapes[off:end]...)
		dimLog = append(dimLog, a.dimLog[off:end]...)
	}
	a.shapes, a.dimLog, a.dead = shapes, dimLog, 0
}

// linkLocked makes slot s its key's best entry, replacing slot old (-1
// for none). Callers hold mu for writing.
func (a *Atlas) linkLocked(s, old int32) {
	if old < 0 {
		a.byKey.put(s)
	} else {
		a.byKey.replace(old, s)
		a.unfamilyLocked(old)
	}
	f := a.family(s)
	a.families[f] = append(a.families[f], s)
}

// unfamilyLocked drops slot s from its family's list. Callers hold mu for
// writing.
func (a *Atlas) unfamilyLocked(s int32) {
	f := a.family(s)
	list := a.families[f]
	i := slices.Index(list, s)
	list[i] = list[len(list)-1]
	if list = list[:len(list)-1]; len(list) == 0 {
		delete(a.families, f)
	} else {
		a.families[f] = list
	}
}

// indexLocked adds a replayed entry as its key's best or as an extra
// version. Callers hold mu for writing.
func (a *Atlas) indexLocked(e *Entry) {
	s := a.addLocked(e, e.Key+e.ID)
	cur, ok := a.byKey.get(e.Key)
	switch {
	case !ok:
		a.linkLocked(s, -1)
	case a.better(s, cur):
		a.linkLocked(s, cur)
		a.extra = append(a.extra, cur)
	default:
		a.extra = append(a.extra, s)
	}
}

// unindexLocked removes slot s's entry, promoting the best of its key's
// extra versions when s was the key's best. Callers hold mu for writing.
func (a *Atlas) unindexLocked(s int32) {
	if i := slices.Index(a.extra, s); i >= 0 {
		a.extra = slices.Delete(a.extra, i, i+1)
		a.releaseLocked(s)
		return
	}
	next := -1
	for i, x := range a.extra {
		if a.key(x) == a.key(s) && (next < 0 || a.better(x, a.extra[next])) {
			next = i
		}
	}
	if next >= 0 {
		a.linkLocked(a.extra[next], s)
		a.extra = slices.Delete(a.extra, next, next+1)
	} else {
		a.byKey.remove(s)
		a.unfamilyLocked(s)
	}
	a.releaseLocked(s)
}

// versionsLocked returns the slots of every version of key, best
// included, in version order (ties in index order). Callers hold mu.
func (a *Atlas) versionsLocked(key string) []int32 {
	best, ok := a.byKey.get(key)
	if !ok {
		return nil
	}
	vs := []int32{best}
	for _, x := range a.extra {
		if a.key(x) == key {
			vs = append(vs, x)
		}
	}
	slices.SortFunc(vs, func(s, t int32) int {
		return cmp.Or(cmp.Compare(a.slots[s].version, a.slots[t].version), cmp.Compare(s, t))
	})
	return vs
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
	// The key and the ID share one allocation (see slot).
	h := sha256.New()
	h.Write([]byte(e.Key))
	h.Write(blob)
	var sum [sha256.Size]byte
	var id [16]byte
	hex.Encode(id[:], h.Sum(sum[:0])[:8])
	var keyID strings.Builder
	keyID.Grow(len(e.Key) + len(id))
	keyID.WriteString(e.Key)
	keyID.Write(id[:])
	e.ID = keyID.String()[len(e.Key):]

	a.mu.RLock()
	if cur, ok := a.byKey.get(e.Key); ok && a.slots[cur].best <= e.BestEDP {
		defer a.mu.RUnlock()
		return a.entryLocked(cur), false, nil
	}
	a.mu.RUnlock()

	a.mu.Lock()
	defer a.mu.Unlock()
	if s, ok := a.byID.get(e.ID); ok {
		return a.entryLocked(s), false, nil
	}
	cur, had := a.byKey.get(e.Key)
	if had && a.slots[cur].best <= e.BestEDP {
		return a.entryLocked(cur), false, nil
	}
	superseded := a.versionsLocked(e.Key)
	e.Version = 1
	if len(superseded) > 0 {
		e.Version = a.slots[superseded[len(superseded)-1]].version + 1
	}
	e.Created = time.Now().UTC()
	manifest, err := json.Marshal(&e)
	if err != nil {
		return Entry{}, false, fmt.Errorf("atlas: %w", err)
	}
	drop := make([]string, len(superseded))
	for i, old := range superseded {
		drop[i] = a.id(old)
	}
	if err := a.seg.Put(e.ID, blobstore.EncodeRecord(manifest, blob), drop...); err != nil {
		return Entry{}, false, fmt.Errorf("atlas: %w", err)
	}
	s := a.addLocked(&e, keyID.String())
	if !had {
		cur = -1
	}
	a.linkLocked(s, cur)
	for _, old := range superseded {
		if old != cur {
			a.extra = slices.DeleteFunc(a.extra, func(x int32) bool { return x == old })
		}
		a.releaseLocked(old)
	}
	return e, true, nil
}

// blobLocked reads the mapping blob of committed entry id from the
// segment. Callers hold mu, at least for reading, from picking the entry
// to this read: Publish tombstones what it supersedes under the write lock,
// so the entry cannot vanish in between.
func (a *Atlas) blobLocked(id string) ([]byte, error) {
	payload, ok, err := a.seg.Get(id)
	if err == nil && !ok {
		err = fmt.Errorf("%w: %q", ErrUnknownEntry, id)
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
	s, ok := a.byKey.get(key)
	var e Entry
	var blob []byte
	var err error
	if ok {
		e = a.entryLocked(s)
		blob, err = a.blobLocked(e.ID)
	}
	a.mu.RUnlock()
	if !ok || err != nil {
		return Entry{}, mapspace.Mapping{}, false, err
	}
	m, err := decodeMapping(e.ID, blob)
	if err != nil {
		return Entry{}, mapspace.Mapping{}, false, err
	}
	return e, m, true, nil
}

// Best returns the best committed entry for the key without reading its
// mapping: a caller that kept what it derived from an entry ID (which
// names one immutable mapping) checks here whether that is still current.
func (a *Atlas) Best(key string) (Entry, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if s, ok := a.byKey.get(key); ok {
		return a.entryLocked(s), true
	}
	return Entry{}, false
}

// Nearest is the warm-start read path: among the family's entries whose
// shape differs from the target, the one at minimum ShapeDistance (ties
// broken by key for determinism), with its mapping decoded from the segment.
// Callers re-project the mapping into the target shape's map space.
//
// The scan takes the target's log2 once and reads each entry's from the
// atlas's table of them, so it computes ShapeDistance's sums bit for bit
// without a logarithm per entry. Entries of another rank lie at infinite distance
// and are skipped.
func (a *Atlas) Nearest(family string, shape []int) (Entry, mapspace.Mapping, float64, bool, error) {
	var buf [8]float64
	target := buf[:0]
	for _, size := range shape {
		target = append(target, math.Log2(float64(size)))
	}
	a.mu.RLock()
	best, bestDist := int32(-1), math.Inf(1)
	for _, s := range a.families[family] {
		sl := &a.slots[s]
		if a.provs[sl.prov].dims != len(target) {
			continue
		}
		var sum float64
		for i, li := range a.dimLog[sl.shape:][:len(target)] {
			d := a.logs[li] - target[i]
			sum += d * d
		}
		// An equal shape sums to zero, so only then are the sizes
		// compared (huge distinct sizes can share a log2).
		if sum == 0 && slices.Equal(a.shapes[sl.shape:][:len(shape)], shape) {
			continue
		}
		d := math.Sqrt(sum)
		if d < bestDist || (d == bestDist && best >= 0 && a.key(s) < a.key(best)) {
			best, bestDist = s, d
		}
	}
	if best < 0 {
		a.mu.RUnlock()
		return Entry{}, mapspace.Mapping{}, 0, false, nil
	}
	e := a.entryLocked(best)
	blob, err := a.blobLocked(e.ID)
	a.mu.RUnlock()
	if err != nil {
		return Entry{}, mapspace.Mapping{}, 0, false, err
	}
	m, err := decodeMapping(e.ID, blob)
	if err != nil {
		return Entry{}, mapspace.Mapping{}, 0, false, err
	}
	return e, m, bestDist, true, nil
}

// List returns every committed entry, ordered by workload, then key, then
// version — the `mindmappings atlas` listing order.
func (a *Atlas) List() []Entry {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]Entry, 0, len(a.slots)-len(a.free))
	for s := range a.slots {
		if a.slots[s].prov >= 0 {
			out = append(out, a.entryLocked(int32(s)))
		}
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
	s, ok := a.byID.get(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEntry, id)
	}
	if err := a.seg.Delete(id); err != nil {
		return fmt.Errorf("atlas: %w", err)
	}
	a.unindexLocked(s)
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
	var staleBest []int32
	if stale != nil {
		for _, list := range a.families {
			for _, s := range list {
				if stale(a.entryLocked(s)) {
					staleBest = append(staleBest, s)
				}
			}
		}
	}
	var removed []string
	for _, s := range slices.Concat(a.extra, staleBest) {
		removed = append(removed, a.id(s))
	}
	slices.Sort(removed)
	if err := a.seg.Delete(removed...); err != nil {
		return nil, fmt.Errorf("atlas: gc: %w", err)
	}
	// Every extra version goes, so the stale bests have none to promote.
	for _, s := range a.extra {
		a.releaseLocked(s)
	}
	a.extra = nil
	for _, s := range staleBest {
		a.unindexLocked(s)
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
	return Stats{Entries: len(a.slots) - len(a.free), Keys: a.byKey.n, Families: len(a.families), Corrupt: a.legacy.Corrupt()}
}
