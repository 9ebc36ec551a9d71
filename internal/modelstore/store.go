// Package modelstore is the versioned, content-addressed artifact store
// for trained Phase-1 surrogates — the persistence layer that closes the
// train→search loop. Each published surrogate persists through
// internal/blobstore as one manifest+blob record of an append-only segment
// (models.log): the surrogate serialization, whose SHA-256 derives the
// artifact id, and a JSON manifest carrying everything needed to pick a
// model without loading it — the workload fingerprint, architecture and
// cost-model fingerprints, the training configuration, final and per-epoch
// losses, and the parent artifact for warm-started runs. Open migrates the
// older per-file layout — a blob (<id>.surrogate) plus a manifest
// (<id>.json) per artifact — into it.
//
// An in-memory index keyed by workload fingerprint resolves "the best
// model for this algorithm" — the highest version, ties broken by recency
// — which is what the service's `"model": "auto"` and the trainer's
// `"warm": "auto"` ride on.
package modelstore

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/blobstore"
	"mindmappings/internal/surrogate"
)

const (
	// SegmentFile names the store's segment inside its directory.
	SegmentFile = "models.log"
	// BlobExt is the extension of surrogate blob files in the per-file layout.
	BlobExt = ".surrogate"
)

// ErrUnknownArtifact is wrapped by Load and Delete for IDs the store does
// not index; callers map it to 404.
var ErrUnknownArtifact = errors.New("modelstore: unknown artifact")

// Manifest describes one published surrogate artifact. It is the unit the
// index, the HTTP API, and the CLI listings all speak.
type Manifest struct {
	// ID is the content address: the first 16 hex digits of the SHA-256 of
	// the serialized surrogate blob. Identical training outputs publish to
	// the same ID (idempotent), and a blob can never change under its ID.
	ID string `json:"id"`
	// Name is an optional human label ("cnn-nightly"); purely descriptive.
	Name string `json:"name,omitempty"`
	// Algo and AlgoFP identify the workload: the algorithm name and the
	// behavioral fingerprint (loopnest.Algorithm.Fingerprint) the surrogate
	// was trained for. AlgoFP keys the auto-resolution index.
	Algo   string `json:"algo"`
	AlgoFP string `json:"algo_fp"`
	// ArchFP fingerprints the accelerator spec (arch.Spec.AppendFingerprint)
	// and CostModel/CostModelFP the backend that labeled the training set —
	// together they pin which f this artifact approximates.
	ArchFP      string `json:"arch_fp"`
	CostModel   string `json:"cost_model"`
	CostModelFP string `json:"cost_model_fp,omitempty"`
	// Version is the per-workload publication sequence (1, 2, …): the
	// highest version for a fingerprint is what "auto" resolves to.
	Version int `json:"version"`
	// Parent is the ID of the artifact this run warm-started from, empty
	// for cold starts — the training-lineage record.
	Parent string `json:"parent,omitempty"`
	// Training provenance: the effective Phase-1 configuration and the
	// loss trajectory (Figure-7a data for this artifact).
	Samples     int       `json:"samples"`
	Problems    int       `json:"problems"`
	Epochs      int       `json:"epochs"`
	HiddenSizes []int     `json:"hidden_sizes"`
	Seed        int64     `json:"seed"`
	FinalTrain  float64   `json:"final_train_loss"`
	FinalTest   float64   `json:"final_test_loss"`
	TrainLoss   []float64 `json:"train_loss,omitempty"`
	TestLoss    []float64 `json:"test_loss,omitempty"`
	// TrainSeconds is the wall-clock of the producing run (generate+train).
	TrainSeconds float64   `json:"train_seconds,omitempty"`
	Created      time.Time `json:"created"`
	SizeBytes    int64     `json:"size_bytes"`
}

// Store is a directory of published artifacts plus an in-memory index over
// their manifests. All methods are safe for concurrent use.
//
// The index is owned by one process: Open replays the directory once and
// every later mutation goes through this Store's methods. Deleting or
// GC-ing a live server's store from a second process (e.g. `mindmappings
// models -gc` against the directory `serve` has open) leaves the server's
// index stale, and the server's next compaction of the segment drops what
// the other process appended; manage a live store through the server's
// own endpoints (DELETE /v1/models/{id}, POST /v1/models/gc) and use the
// CLI for offline stores.
type Store struct {
	seg *blobstore.Segment
	// legacy is the per-file layout Open migrated from: it counts what
	// Open could not index, and its debris stays for GC to sweep.
	legacy    *blobstore.Store
	failpoint blobstore.Failpoint

	// writeMu serializes the appends — Publish, Delete, GC — so mu is held
	// only to update the index, never across a write: readers never wait
	// behind a publish's MB-scale append.
	writeMu sync.Mutex
	// mu guards the index. Only writers change it, holding writeMu too, so
	// a writer may read it without mu.
	mu   sync.RWMutex
	byID map[string]*Manifest
	// byFP groups manifests per workload fingerprint, sorted best-last
	// (ascending version, then creation time).
	byFP map[string][]*Manifest
}

// SetFailpoint installs (or clears, with nil) the "store.publish" hook: an
// error aborts Publish before anything is written.
func (s *Store) SetFailpoint(fn func(op string) error) { s.failpoint.Set(fn) }

// Open replays dir's segment (creating dir if needed) and indexes every
// committed artifact, dropping a torn tail, then migrates the per-file
// layout into the segment (blobstore.OpenRecords). Per-file crash debris
// stays invisible until GC sweeps it.
func Open(dir string) (*Store, error) {
	seg, legacy, manifests, err := blobstore.OpenRecords(dir, SegmentFile, BlobExt, decodeManifest)
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	s := &Store{
		seg:    seg,
		legacy: legacy,
		byID:   make(map[string]*Manifest),
		byFP:   make(map[string][]*Manifest),
	}
	for _, m := range manifests {
		s.indexLocked(m)
	}
	return s, nil
}

// decodeManifest reads an artifact manifest, rejecting one without its
// workload fingerprint.
func decodeManifest(raw []byte) (m *Manifest, id string) {
	m = new(Manifest)
	if json.Unmarshal(raw, m) != nil || m.AlgoFP == "" {
		return m, ""
	}
	return m, m.ID
}

// Close releases the store's segment file; later writes and loads fail.
func (s *Store) Close() error { return s.seg.Close() }

// indexLocked inserts m into both indexes and keeps the per-fingerprint
// group sorted best-last. Callers hold mu (or own the store exclusively).
func (s *Store) indexLocked(m *Manifest) {
	s.byID[m.ID] = m
	group := append(s.byFP[m.AlgoFP], m)
	slices.SortStableFunc(group, func(x, y *Manifest) int {
		return cmp.Or(x.Version-y.Version, x.Created.Compare(y.Created))
	})
	s.byFP[m.AlgoFP] = group
}

// PublishMeta carries the provenance Publish stamps into the manifest.
type PublishMeta struct {
	Name         string
	CostModel    string
	CostModelFP  string
	Samples      int
	Problems     int
	Epochs       int
	HiddenSizes  []int
	Seed         int64
	Parent       string // warm-start parent artifact ID
	TrainLoss    []float64
	TestLoss     []float64
	TrainSeconds float64
}

// Publish appends the surrogate as a new committed artifact, one record
// holding its manifest and blob, and returns its manifest; republishing
// bit-identical content returns the existing manifest without creating a
// new version. Publishes are serialized on writeMu, and the index lock is
// taken only to index the appended artifact, so Resolve/Get on the search
// path never stall behind a publication.
func (s *Store) Publish(sur *surrogate.Surrogate, meta PublishMeta) (Manifest, error) {
	if err := s.failpoint.Fire("store.publish"); err != nil {
		return Manifest{}, err
	}
	var buf bytes.Buffer
	if err := sur.Save(&buf); err != nil {
		return Manifest{}, fmt.Errorf("modelstore: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	id := hex.EncodeToString(sum[:])[:16]

	if existing, ok := s.Get(id); ok {
		return existing, nil
	}

	m := &Manifest{
		ID:           id,
		Name:         meta.Name,
		Algo:         sur.AlgoName,
		AlgoFP:       sur.AlgoFP,
		ArchFP:       ArchFingerprint(sur.Arch),
		CostModel:    meta.CostModel,
		CostModelFP:  meta.CostModelFP,
		Parent:       meta.Parent,
		Samples:      meta.Samples,
		Problems:     meta.Problems,
		Epochs:       len(meta.TrainLoss),
		HiddenSizes:  append([]int(nil), meta.HiddenSizes...),
		Seed:         meta.Seed,
		TrainLoss:    append([]float64(nil), meta.TrainLoss...),
		TestLoss:     append([]float64(nil), meta.TestLoss...),
		TrainSeconds: meta.TrainSeconds,
		Created:      time.Now().UTC(),
		SizeBytes:    int64(buf.Len()),
	}
	if meta.Epochs > 0 {
		m.Epochs = meta.Epochs
	}
	if n := len(meta.TrainLoss); n > 0 {
		m.FinalTrain = meta.TrainLoss[n-1]
	}
	if n := len(meta.TestLoss); n > 0 {
		m.FinalTest = meta.TestLoss[n-1]
	}

	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if existing, ok := s.byID[id]; ok { // lost a publish race for identical content
		return *existing, nil
	}
	m.Version = 1
	if group := s.byFP[m.AlgoFP]; len(group) > 0 {
		m.Version = group[len(group)-1].Version + 1
	}
	raw, err := json.Marshal(m)
	if err != nil {
		return Manifest{}, fmt.Errorf("modelstore: %w", err)
	}
	if err := s.seg.Put(id, blobstore.EncodeRecord(raw, buf.Bytes())); err != nil {
		return Manifest{}, fmt.Errorf("modelstore: %w", err)
	}
	s.mu.Lock()
	s.indexLocked(m)
	s.mu.Unlock()
	return *m, nil
}

// Get returns the manifest for an artifact ID.
func (s *Store) Get(id string) (Manifest, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if m, ok := s.byID[id]; ok {
		return *m, true
	}
	return Manifest{}, false
}

// ResolveMatching returns the best (highest-version) artifact for a
// workload fingerprint that satisfies pred (nil accepts any). Callers use
// it to pin the rest of a surrogate's identity — the labeling cost model
// and the accelerator — so "auto" never serves a model approximating a
// different f than the one the search is scored against.
func (s *Store) ResolveMatching(algoFP string, pred func(Manifest) bool) (Manifest, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	group := s.byFP[algoFP]
	for i := len(group) - 1; i >= 0; i-- {
		if pred == nil || pred(*group[i]) {
			return *group[i], true
		}
	}
	return Manifest{}, false
}

// List returns every committed manifest, sorted by algorithm name then
// version — the `/v1/models` and `mindmappings models` listing.
func (s *Store) List() []Manifest {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Manifest, 0, len(s.byID))
	for _, m := range s.byID {
		out = append(out, *m)
	}
	slices.SortFunc(out, func(x, y Manifest) int {
		return cmp.Or(cmp.Compare(x.Algo, y.Algo), cmp.Compare(x.AlgoFP, y.AlgoFP), x.Version-y.Version)
	})
	return out
}

// Blob returns an artifact's serialized surrogate: the bytes its ID
// addresses.
func (s *Store) Blob(id string) ([]byte, error) {
	payload, ok, err := s.seg.Get(id)
	if err != nil {
		return nil, fmt.Errorf("modelstore: artifact %q: %w", id, err)
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownArtifact, id)
	}
	_, blob, _ := blobstore.SplitRecord(payload) // Open and Publish checked the split
	return blob, nil
}

// Load deserializes the artifact's surrogate blob.
func (s *Store) Load(id string) (*surrogate.Surrogate, error) {
	blob, err := s.Blob(id)
	if err != nil {
		return nil, err
	}
	sur, err := surrogate.Load(bytes.NewReader(blob))
	if err != nil {
		return nil, fmt.Errorf("modelstore: artifact %q: %w", id, err)
	}
	return sur, nil
}

// Delete removes an artifact, appending its tombstone.
func (s *Store) Delete(id string) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if _, ok := s.byID[id]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownArtifact, id)
	}
	if err := s.removeLocked(id); err != nil {
		return fmt.Errorf("modelstore: %w", err)
	}
	return nil
}

// removeLocked tombstones indexed artifacts with one append and drops them
// from the index. Callers hold writeMu.
func (s *Store) removeLocked(ids ...string) error {
	if err := s.seg.Delete(ids...); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		m := s.byID[id]
		delete(s.byID, id)
		group := slices.DeleteFunc(s.byFP[m.AlgoFP], func(g *Manifest) bool { return g == m })
		if len(group) == 0 {
			delete(s.byFP, m.AlgoFP)
		} else {
			s.byFP[m.AlgoFP] = group
		}
	}
	return nil
}

// GC removes superseded versions — keeping the newest keep versions per
// workload fingerprint (minimum 1) — with one append of tombstones, then
// sweeps the per-file layout's debris and resets the corrupt count. It
// returns the removed artifact IDs followed by the debris file names.
func (s *Store) GC(keep int) ([]string, error) {
	keep = max(keep, 1)
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	var removed []string
	for _, group := range s.byFP {
		for _, m := range group[:max(len(group)-keep, 0)] {
			removed = append(removed, m.ID)
		}
	}
	if err := s.removeLocked(removed...); err != nil {
		return nil, fmt.Errorf("modelstore: gc: %w", err)
	}
	debris, err := s.legacy.Sweep()
	if err != nil {
		err = fmt.Errorf("modelstore: gc: %w", err)
	}
	return append(removed, debris...), err
}

// Stats is a point-in-time store snapshot, exposed by the service as the
// store_artifacts, store_workloads and store_corrupt_manifests series.
type Stats struct {
	Artifacts int `json:"artifacts"`
	Workloads int `json:"workloads"`
	// Corrupt counts what Open could not index and GC has not swept or
	// reset yet: per-file manifests that are unreadable, uncommitted or
	// misnamed, and a torn or CRC-bad segment tail.
	Corrupt int `json:"corrupt"`
}

// Stats snapshots index counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{Artifacts: len(s.byID), Workloads: len(s.byFP), Corrupt: s.legacy.Corrupt()}
}

// defaultArchFPs caches ArchFingerprint(arch.Default(n)) by n (int →
// string): the spec every registered workload's searches run on.
var defaultArchFPs sync.Map

// ArchFingerprint hex-hashes an accelerator spec — the manifest's ArchFP
// encoding, exported so resolvers can match against the arch a search
// will actually run on. The default specs are hashed once.
func ArchFingerprint(a arch.Spec) string {
	isDefault := a == arch.Default(a.OperandsPerMAC)
	if isDefault {
		if fp, ok := defaultArchFPs.Load(a.OperandsPerMAC); ok {
			return fp.(string)
		}
	}
	sum := sha256.Sum256(a.AppendFingerprint(nil))
	fp := hex.EncodeToString(sum[:])
	if isDefault {
		defaultArchFPs.Store(a.OperandsPerMAC, fp)
	}
	return fp
}
