// Package blobstore is the persistence core under the mapping atlas, the
// job journal and the model store: Segment, an append-only log of keyed
// records (the atlas and the journal); Store, directories of immutable
// blob+manifest pairs committed by atomic rename (the model store, and the
// layout the atlas migrates from); and WriteAtomic, the temp+rename writer
// that replaces whole files. The typed layers keep only their indexes and
// policy. DESIGN.md §14 states the guarantee.
package blobstore

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// TmpPrefix starts every staging file of a Store; ManifestExt ends every
// manifest, whose rename commits an entry.
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
// file named tmpPrefix+<random> beside path, beforeRename runs, and a
// rename puts the temp over path. A failed step removes the temp. Nothing
// is fsynced (DESIGN.md §14).
func WriteAtomic(path, tmpPrefix string, perm fs.FileMode, data []byte, beforeRename func() error) error {
	tmp := tempName(filepath.Dir(path), tmpPrefix)
	err := writeNew(tmp, perm, data)
	if err != nil {
		return err
	}
	if err = beforeRename(); err == nil {
		err = disk.Rename(tmp, path)
	}
	if err != nil {
		disk.Remove(tmp)
	}
	return err
}

func tempName(dir, prefix string) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x", prefix, rand.Uint64()))
}

// writeNew creates name, which must not exist, holding data; a failed
// write leaves no file.
func writeNew(name string, perm fs.FileMode, data []byte) error {
	f, err := disk.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, perm)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		disk.Remove(name)
	}
	return err
}

// Store is one directory of <id><blobExt> blobs and <id>.json manifests.
// Stage is safe for concurrent use; the caller serializes Commit, Remove
// and Sweep under the lock that guards its own index.
type Store struct {
	dir, blobExt string

	// Failpoint is the publish hook, fired by the typed layer.
	Failpoint Failpoint

	mu sync.Mutex
	// pending names the staging files of in-flight publishes, registered
	// before the file exists, so Sweep never takes one.
	pending map[string]struct{}
	// corrupt counts the manifests Open skipped; Sweep deletes them.
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
	s := &Store{dir: dir, blobExt: blobExt, pending: make(map[string]struct{})}
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
		if id != strings.TrimSuffix(name, ManifestExt) || !ValidID(id) || !exists(s.BlobPath(id)) {
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

// BlobPath returns the path of an entry's blob.
func (s *Store) BlobPath(id string) string { return filepath.Join(s.dir, id+s.blobExt) }

func (s *Store) manifestPath(id string) string { return filepath.Join(s.dir, id+ManifestExt) }

// Corrupt counts the skipped manifests no Sweep has removed yet.
func (s *Store) Corrupt() int { return int(s.corrupt.Load()) }

// Stage writes a blob to a fresh staging file, outside any caller lock.
// The file is pending — Sweep leaves it alone — until it is passed to
// exactly one of Commit or Discard.
func (s *Store) Stage(blob []byte) (string, error) {
	tmp := tempName(s.dir, TmpPrefix)
	s.mu.Lock()
	s.pending[filepath.Base(tmp)] = struct{}{}
	s.mu.Unlock()
	if err := writeNew(tmp, 0o644, blob); err != nil {
		s.forget(tmp)
		return "", err
	}
	return tmp, nil
}

// Discard removes a staged blob that will not be committed.
func (s *Store) Discard(tmp string) {
	disk.Remove(tmp)
	s.forget(tmp)
}

func (s *Store) forget(tmp string) {
	s.mu.Lock()
	delete(s.pending, filepath.Base(tmp))
	s.mu.Unlock()
}

// Commit publishes a staged blob as entry id: stage the manifest, rename
// the blob into place, then rename the manifest — the commit point. A
// failed step removes both files, so the entry never becomes visible.
func (s *Store) Commit(tmp, id string, manifest []byte) error {
	defer s.forget(tmp)
	blob := s.BlobPath(id)
	err := WriteAtomic(s.manifestPath(id), TmpPrefix, 0o644, manifest, func() error { return disk.Rename(tmp, blob) })
	if err != nil {
		disk.Remove(tmp) // whichever of the two the failed step left
		disk.Remove(blob)
	}
	return err
}

// Remove deletes a committed entry manifest first, so a crash in between
// leaves an orphan blob for Sweep, never a manifest pointing at nothing.
func (s *Store) Remove(id string) error {
	if err := disk.Remove(s.manifestPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	disk.Remove(s.BlobPath(id))
	return nil
}

// Sweep removes crash debris — staging files no in-flight publish owns,
// and blobs and manifests whose ID live rejects — returning their names
// in directory order, and resets the corrupt count.
func (s *Store) Sweep(live func(id string) bool) ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || s.keep(name, live) {
			continue
		}
		if err := disk.Remove(filepath.Join(s.dir, name)); errors.Is(err, fs.ErrNotExist) {
			continue // a concurrent Discard got there first
		} else if err != nil {
			return removed, err
		}
		removed = append(removed, name)
	}
	s.corrupt.Store(0)
	return removed, nil
}

// keep reports whether Sweep must leave a file alone: a pending staging
// file, a live entry's blob or manifest, or a file the store does not own.
func (s *Store) keep(name string, live func(id string) bool) bool {
	if strings.HasPrefix(name, TmpPrefix) {
		s.mu.Lock()
		defer s.mu.Unlock()
		_, ok := s.pending[name]
		return ok
	}
	for _, ext := range [...]string{s.blobExt, ManifestExt} {
		if id, ok := strings.CutSuffix(name, ext); ok {
			return live(id)
		}
	}
	return true
}
