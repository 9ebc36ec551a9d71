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
// The atlas holds one entry per key: a better solution supersedes the
// key's entry, and Open finishes a supersede that a crash cut off.
// Entries persist through internal/blobstore as manifest+blob records of
// one append-only segment (atlas.log), each holding an entry's manifest and
// its mapping blob (both JSON). The segment is the atlas's only on-disk
// format.
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

// SegmentFile names the atlas segment inside the atlas directory.
const SegmentFile = "atlas.log"

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
// The atlas holds one entry per key, and the entry keeps one slot of a
// slice for its life: a better publish rewrites its key's slot in place,
// and Delete and GC leave the slot empty until the next Open. What entries
// share is held once per atlas: the provenance strings are interned, every
// shape lies in one slab, the log2 of each distinct size is taken once,
// and byKey and the family lists hold slot numbers. See DESIGN.md §11.
type Atlas struct {
	seg       *blobstore.Segment
	failpoint blobstore.Failpoint

	mu    sync.RWMutex
	slots []slot
	byKey table
	// families maps a family to the slots of its keys, the list Nearest
	// scans.
	families map[string][]int32
	provs    []provenance
	provOf   map[provenance]int32
	// shapes is a slab: a slot's shape is shapes[s.shape:][:dims], and
	// dimLog[s.shape:][:dims] indexes the log2 of each of its sizes in
	// logs. A slot's sizes stay where they are until the next Open, so a
	// Shape an Entry returned never changes.
	shapes []int
	dimLog []int32
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
	prov    int32 // index in provs; -1 for an empty slot
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

// Open replays dir's segment (creating dir if needed), dropping a torn
// tail (blobstore.OpenRecords), and indexes each key's best record: the
// lowest BestEDP, then the newest version, then the first in the log. Only
// a crash inside a supersede's one write leaves a key more than one
// record; Open finishes that supersede by tombstoning the others in one
// write before it indexes, and writes nothing to a log that holds none.
// Other files in dir are neither read nor touched.
func Open(dir string) (*Atlas, error) {
	seg, entries, err := blobstore.OpenRecords(dir, SegmentFile, decodeEntry)
	if err != nil {
		return nil, fmt.Errorf("atlas: %w", err)
	}
	win := make(map[string]int, len(entries))
	for i := range entries {
		e := &entries[i]
		if j, ok := win[e.Key]; !ok || cmp.Or(cmp.Compare(e.BestEDP, entries[j].BestEDP), cmp.Compare(entries[j].Version, e.Version)) < 0 {
			win[e.Key] = i
		}
	}
	var drop []string
	dims := 0
	for i := range entries {
		if win[entries[i].Key] != i {
			drop = append(drop, entries[i].ID)
		} else {
			dims += len(entries[i].Shape)
		}
	}
	if err := seg.Delete(drop...); err != nil {
		seg.Close()
		return nil, fmt.Errorf("atlas: finishing a cut-off supersede: %w", err)
	}
	a := &Atlas{
		seg:      seg,
		slots:    make([]slot, 0, len(win)),
		families: make(map[string][]int32),
		provOf:   make(map[provenance]int32),
		shapes:   make([]int, 0, dims),
		dimLog:   make([]int32, 0, dims),
		logOf:    make(map[int]int32),
	}
	a.byKey = newTable(maphash.MakeSeed(), len(win), a.key)
	for i := range entries {
		if win[entries[i].Key] == i {
			a.addLocked(&entries[i], entries[i].Key+entries[i].ID)
		}
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
	return Entry{
		ID: sl.keyID[p.keyLen:], Key: sl.keyID[:p.keyLen], Family: p.family,
		Algo: p.algo, AlgoFP: p.algoFP, ArchFP: p.archFP, CostModel: p.costModel, Objective: p.objective,
		Shape:   a.shape(s),
		BestEDP: sl.best, Evals: sl.evals, Method: p.method, Source: p.source,
		Version: sl.version, Created: created,
	}
}

// key, id, family and shape read slot s's entry's. Callers hold mu.
func (a *Atlas) key(s int32) string    { return a.slots[s].keyID[:a.provs[a.slots[s].prov].keyLen] }
func (a *Atlas) id(s int32) string     { return a.slots[s].keyID[a.provs[a.slots[s].prov].keyLen:] }
func (a *Atlas) family(s int32) string { return a.provs[a.slots[s].prov].family }
func (a *Atlas) shape(s int32) []int {
	off := int(a.slots[s].shape)
	end := off + a.provs[a.slots[s].prov].dims
	return a.shapes[off:end:end]
}

// slotLocked makes the slot of e, whose keyID is its key and then its ID,
// with its shape at offset shape, interning its provenance. Callers hold
// mu for writing.
func (a *Atlas) slotLocked(e *Entry, keyID string, shape int32) slot {
	p := provenance{e.Family, e.Algo, e.AlgoFP, e.ArchFP, e.CostModel, e.Objective, e.Method, e.Source, len(e.Shape), len(e.Key)}
	pi, ok := a.provOf[p]
	if !ok {
		pi = int32(len(a.provs))
		a.provs = append(a.provs, p)
		a.provOf[p] = pi
	}
	sl := slot{keyID: keyID, best: e.BestEDP, evals: e.Evals, version: e.Version, prov: pi, shape: shape}
	if !e.Created.IsZero() {
		sl.created = e.Created.UnixNano()
	}
	return sl
}

// addLocked puts e, whose key the atlas does not hold, in a new slot and
// files it under its key and its family. Callers hold mu for writing.
func (a *Atlas) addLocked(e *Entry, keyID string) {
	s := int32(len(a.slots))
	a.slots = append(a.slots, a.slotLocked(e, keyID, int32(len(a.shapes))))
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
	a.byKey.put(s)
	f := a.family(s)
	a.families[f] = append(a.families[f], s)
}

// removeLocked unfiles slot s's entry and leaves the slot empty. Callers
// hold mu for writing.
func (a *Atlas) removeLocked(s int32) {
	a.byKey.remove(s)
	f := a.family(s)
	list := a.families[f]
	i := slices.Index(list, s)
	list[i] = list[len(list)-1]
	if list = list[:len(list)-1]; len(list) == 0 {
		delete(a.families, f)
	} else {
		a.families[f] = list
	}
	a.slots[s] = slot{prov: -1}
}

// Publish commits a solved mapping, unless the atlas already holds an
// equal-or-better entry for the key ("only-if-better", DESIGN.md §11).
// One write appends the entry's record and the tombstone of the entry it
// supersedes, whose slot it then takes; the next Open finishes a write a
// crash cut between the two. A publish whose Family or Shape differs from
// its key's entry is refused: its key was not made by Key. Returns the
// visible entry for the key and whether this call committed a new one.
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
	cur, had := a.byKey.get(e.Key)
	var drop []string
	e.Version = 1
	if had {
		// An ID hashes its key with its blob, so an equal ID is this very
		// entry.
		if a.slots[cur].best <= e.BestEDP || a.id(cur) == e.ID {
			return a.entryLocked(cur), false, nil
		}
		if e.Family != a.family(cur) || !slices.Equal(e.Shape, a.shape(cur)) {
			return Entry{}, false, fmt.Errorf("atlas: publish under key %s with a family or shape other than its entry's", e.Key)
		}
		drop = []string{a.id(cur)}
		e.Version = a.slots[cur].version + 1
	}
	e.Created = time.Now().UTC()
	manifest, err := json.Marshal(&e)
	if err != nil {
		return Entry{}, false, fmt.Errorf("atlas: %w", err)
	}
	if err := a.seg.Put(e.ID, blobstore.EncodeRecord(manifest, blob), drop...); err != nil {
		return Entry{}, false, fmt.Errorf("atlas: %w", err)
	}
	if had {
		// The key fixes the family and the shape, so byKey, the family
		// list and the slab stay as they are.
		a.slots[cur] = a.slotLocked(&e, keyID.String(), a.slots[cur].shape)
	} else {
		a.addLocked(&e, keyID.String())
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

// List returns every committed entry, ordered by workload, then key — the
// `mindmappings atlas` listing order.
func (a *Atlas) List() []Entry {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]Entry, 0, a.byKey.n)
	for s := range a.slots {
		if a.slots[s].prov >= 0 {
			out = append(out, a.entryLocked(int32(s)))
		}
	}
	slices.SortFunc(out, func(x, y Entry) int {
		return cmp.Or(cmp.Compare(x.Algo, y.Algo), cmp.Compare(x.Key, y.Key))
	})
	return out
}

// Delete removes one entry by ID. It scans the slots: only the offline
// `mindmappings atlas -delete` calls it.
func (a *Atlas) Delete(id string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for s := range a.slots {
		if a.slots[s].prov < 0 || a.id(int32(s)) != id {
			continue
		}
		if err := a.seg.Delete(id); err != nil {
			return fmt.Errorf("atlas: %w", err)
		}
		a.removeLocked(int32(s))
		return nil
	}
	return fmt.Errorf("%w: %q", ErrUnknownEntry, id)
}

// GC removes the entries the stale predicate condemns (drifted workload
// fingerprints, say; nil keeps all) with one write of tombstones. It
// returns the removed entry IDs in ID order.
func (a *Atlas) GC(stale func(Entry) bool) ([]string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var victims []int32
	var removed []string
	for s := range a.slots {
		if stale != nil && a.slots[s].prov >= 0 && stale(a.entryLocked(int32(s))) {
			victims = append(victims, int32(s))
			removed = append(removed, a.id(int32(s)))
		}
	}
	slices.Sort(removed)
	if err := a.seg.Delete(removed...); err != nil {
		return nil, fmt.Errorf("atlas: gc: %w", err)
	}
	for _, s := range victims {
		a.removeLocked(s)
	}
	return removed, nil
}

// Stats is a point-in-time atlas snapshot for listings and the service's
// atlas_entries and atlas_corrupt_manifests series.
type Stats struct {
	// Entries counts committed entries, one per exact identity;
	// Families counts shape-independent groups.
	Entries  int `json:"entries"`
	Families int `json:"families"`
	// Corrupt counts the records the last Open dropped: a torn or CRC-bad
	// segment tail, and records whose manifest is unreadable or misnamed.
	Corrupt int `json:"corrupt"`
}

// Stats snapshots index counters.
func (a *Atlas) Stats() Stats {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return Stats{Entries: a.byKey.n, Families: len(a.families), Corrupt: a.seg.Corrupt()}
}
