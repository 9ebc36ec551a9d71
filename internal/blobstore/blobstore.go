// Package blobstore is the persistence core under the mapping atlas, the
// job journal and the model store: Segment, an append-only log of keyed
// records and the only on-disk format of all three stores; the
// manifest+blob record the atlas and the model store keep per entry,
// opened by OpenRecords; and WriteAtomic, the temp+rename writer that
// replaces whole files. The typed layers keep only their indexes and
// policy. DESIGN.md §14 states the guarantee.
package blobstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
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

// OpenRecords creates dir if needed and opens a directory of manifest+blob
// records: the segment named segFile in dir, one live record per entry,
// whose manifest decode reads (it returns the ID the manifest claims, or
// "" to reject it). A record whose manifest is rejected or names another
// ID is corrupt (Segment.Corrupt). It returns the segment and the decoded
// manifests in log order. Files in dir other than the segment are left
// alone.
func OpenRecords[M any](dir, segFile string, decode func(manifest []byte) (M, string)) (*Segment, []M, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	return OpenSegment(filepath.Join(dir, segFile), 0o644, func(id string, payload []byte) (m M, ok bool) {
		manifest, _, ok := SplitRecord(payload)
		if !ok {
			return m, false
		}
		m, claimed := decode(manifest)
		return m, claimed == id
	})
}
