// Package blobstore is the persistence core under the mapping atlas, the
// job journal and the model store: Segment, an append-only log of keyed
// records (all three stores); the manifest+blob record the atlas and the
// model store keep per entry, opened by OpenRecords, which migrates the
// per-file layout they used before (read through Store); and WriteAtomic,
// the temp+rename writer that replaces whole files. The typed layers keep
// only their indexes and policy. DESIGN.md §14 states the guarantee.
package blobstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// TmpPrefix starts every staging file of the per-file layout; ManifestExt
// ends every manifest of it.
const (
	TmpPrefix   = "tmp-"
	ManifestExt = ".json"
)

// fileLayer is every file mutation the package makes. The OS serves it;
// tests swap in layers that inject faults or record a crash log.
type fileLayer interface {
	OpenFile(name string, flag int, perm fs.FileMode) (file, error)
	Rename(from, to string) error
	Remove(name string) error
}

// file is what the package does with an open file.
type file interface {
	io.Writer
	io.ReaderAt
	Stat() (fs.FileInfo, error)
	Truncate(size int64) error
	Close() error
}

type osLayer struct{}

func (osLayer) OpenFile(name string, flag int, perm fs.FileMode) (file, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osLayer) Rename(from, to string) error { return os.Rename(from, to) }
func (osLayer) Remove(name string) error     { return os.Remove(name) }

var disk fileLayer = osLayer{}

// ValidID reports whether id can name a file inside a store directory:
// non-empty, no path separator, no leading dot (so no ".." either).
func ValidID(id string) bool {
	return id != "" && !strings.ContainsAny(id, `/\`) && !strings.HasPrefix(id, ".")
}

// Failpoint is a concurrency-safe fault-injection hook; zero never fires.
type Failpoint struct {
	fn atomic.Pointer[func(op string) error]
}

// Set installs fn, or clears the hook when fn is nil.
func (f *Failpoint) Set(fn func(op string) error) { f.fn.Store(&fn) }

// Fire consults the hook for op; an error aborts the caller's operation.
func (f *Failpoint) Fire(op string) error {
	if fn := f.fn.Load(); fn != nil && *fn != nil {
		return (*fn)(op)
	}
	return nil
}

// WriteAtomic replaces path with data so that a process crash at any
// instant leaves the old file or the new one: data goes to a fresh temp
// file named tmpPrefix+<random> beside path, and a rename puts the temp
// over path. A failed step removes the temp. Nothing is fsynced
// (DESIGN.md §14).
func WriteAtomic(path, tmpPrefix string, perm fs.FileMode, data []byte) error {
	tmp := filepath.Join(filepath.Dir(path), fmt.Sprintf("%s%016x", tmpPrefix, rand.Uint64()))
	f, err := disk.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, perm)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = disk.Rename(tmp, path)
	}
	if err != nil {
		disk.Remove(tmp)
	}
	return err
}

// Store reads one directory of the per-file layout: <id><blobExt> blobs
// beside <id>.json manifests, each entry committed by its manifest's
// rename. Nothing writes that layout any more; OpenRecords migrates it,
// and Sweep removes what a crash or the migration left behind. The caller
// serializes Remove and Sweep.
type Store struct {
	dir, blobExt string
	// corrupt counts what Open could not index; through OpenRecords, also
	// the blobs it could not migrate and the records its segment dropped.
	// Sweep resets it.
	corrupt atomic.Int64
}

// Open creates dir if needed and returns its store plus every committed
// manifest, as decoded by decode, which returns the ID a manifest claims
// or "" to reject it. A manifest that is unreadable, rejected, misnamed
// (its ID invalid or not its file name) or blobless is counted corrupt.
func Open[M any](dir, blobExt string, decode func(raw []byte) (M, string)) (*Store, []M, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	s := &Store{dir: dir, blobExt: blobExt}
	var out []M
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ManifestExt) || strings.HasPrefix(name, TmpPrefix) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, name))
		var m M
		id := ""
		if err == nil {
			m, id = decode(raw)
		}
		if id != strings.TrimSuffix(name, ManifestExt) || !ValidID(id) || !exists(s.blobPath(id)) {
			s.corrupt.Add(1)
			continue
		}
		out = append(out, m)
	}
	return s, out, nil
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func (s *Store) blobPath(id string) string { return filepath.Join(s.dir, id+s.blobExt) }

func (s *Store) manifestPath(id string) string { return filepath.Join(s.dir, id+ManifestExt) }

// Corrupt counts the corrupt entries no Sweep has removed yet.
func (s *Store) Corrupt() int { return int(s.corrupt.Load()) }

// Remove deletes an entry, manifest first, so a crash in between leaves
// an orphan blob for Sweep, never a manifest pointing at nothing.
func (s *Store) Remove(id string) error {
	if err := disk.Remove(s.manifestPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	disk.Remove(s.blobPath(id))
	return nil
}

// Sweep removes what is left of the layout once OpenRecords has migrated
// every committed entry: crash debris — staging files, orphan blobs,
// corrupt manifests — and entries whose blob could not be read. It
// returns their names in directory order and resets the corrupt count.
func (s *Store) Sweep() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !s.owns(name) {
			continue
		}
		if err := disk.Remove(filepath.Join(s.dir, name)); errors.Is(err, fs.ErrNotExist) {
			continue
		} else if err != nil {
			return removed, err
		}
		removed = append(removed, name)
	}
	s.corrupt.Store(0)
	return removed, nil
}

// owns reports whether a file name belongs to the layout: a staging file,
// a blob or a manifest.
func (s *Store) owns(name string) bool {
	return strings.HasPrefix(name, TmpPrefix) || strings.HasSuffix(name, s.blobExt) || strings.HasSuffix(name, ManifestExt)
}

// EncodeRecord lays out the payload of a manifest+blob record, the one
// record the atlas and the model store keep per entry: the manifest's
// length as a uvarint, the manifest, then the blob.
func EncodeRecord(manifest, blob []byte) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+len(manifest)+len(blob))
	buf = binary.AppendUvarint(buf, uint64(len(manifest)))
	return append(append(buf, manifest...), blob...)
}

// SplitRecord is the inverse of EncodeRecord.
func SplitRecord(payload []byte) (manifest, blob []byte, ok bool) {
	n, k := binary.Uvarint(payload)
	if k <= 0 || n > uint64(len(payload)-k) {
		return nil, nil, false
	}
	return payload[k : k+int(n)], payload[k+int(n):], true
}

// legacyEntry is a committed entry of the per-file layout, awaiting
// migration.
type legacyEntry[M any] struct {
	id       string
	manifest []byte
	m        M
}

// OpenRecords opens a directory of manifest+blob records: the segment
// named segFile in dir, one live record per entry, whose manifest decode
// reads (it returns the ID the manifest claims, or "" to reject it). A
// record whose manifest is rejected or names another ID is corrupt. It
// then migrates each committed entry of the per-file layout in dir into
// the segment, appending first and removing the files after, so a crash
// in between only repeats the migration; an entry whose blob cannot be
// read is left for Sweep. It returns the segment, the per-file layout's
// Store, which counts everything corrupt until Sweep, and the decoded
// manifests: the segment's in log order, then the migrated ones.
func OpenRecords[M any](dir, segFile, blobExt string, decode func(manifest []byte) (M, string)) (*Segment, *Store, []M, error) {
	legacy, old, err := Open(dir, blobExt, func(raw []byte) (legacyEntry[M], string) {
		m, id := decode(raw)
		return legacyEntry[M]{id, raw, m}, id
	})
	if err != nil {
		return nil, nil, nil, err
	}
	seg, out, err := OpenSegment(filepath.Join(dir, segFile), 0o644, func(id string, payload []byte) (m M, ok bool) {
		manifest, _, ok := SplitRecord(payload)
		if !ok {
			return m, false
		}
		m, claimed := decode(manifest)
		return m, claimed == id
	})
	if err != nil {
		return nil, nil, nil, err
	}
	legacy.corrupt.Add(int64(seg.Corrupt()))
	for _, e := range old {
		if _, ok := seg.index[e.id]; !ok {
			blob, err := os.ReadFile(legacy.blobPath(e.id))
			if err != nil {
				legacy.corrupt.Add(1)
				continue
			}
			if err := seg.Put(e.id, EncodeRecord(e.manifest, blob)); err != nil {
				seg.Close()
				return nil, nil, nil, fmt.Errorf("migrating %s: %w", dir, err)
			}
			out = append(out, e.m)
		}
		if err := legacy.Remove(e.id); err != nil {
			seg.Close()
			return nil, nil, nil, fmt.Errorf("migrating %s: %w", dir, err)
		}
	}
	return seg, legacy, out, nil
}
