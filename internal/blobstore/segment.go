package blobstore

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// A segment record is one write(2) of
//
//	len uint32 | crc uint32 | kind byte | id length byte | id | payload
//
// little-endian, where len counts the bytes after the CRC and the CRC
// (CRC-32C) covers those same bytes. A put binds the payload to the id; a
// tombstone, with no payload, unbinds it.
const (
	frameHeader = 8
	kindPut     = 1
	kindDelete  = 2
	maxIDLen    = math.MaxUint8

	// compactMin is the size a segment must pass before it is compacted;
	// compaction also needs at least half of its records dead.
	compactMin = 1 << 20

	// maxKeptBuf bounds the append buffer a segment keeps between appends:
	// a larger one, say a surrogate's record, is dropped after its write.
	maxKeptBuf = 64 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errClosed is returned by every operation on a closed Segment.
var errClosed = errors.New("blobstore: segment closed")

// span locates one framed record in the segment file.
type span struct{ off, n int64 }

// Segment is an append-only log of keyed records in one file, under the
// atlas, the job journal and the model store. Each append is a single write on an O_APPEND
// file, so a process crash leaves at most a torn last record, which
// OpenSegment truncates; nothing is fsynced (DESIGN.md §14). The index
// maps each live id to its record's offset; payloads stay on disk. Safe
// for concurrent use.
type Segment struct {
	path string
	perm fs.FileMode
	// corrupt counts what OpenSegment dropped: a torn or CRC-bad tail, and
	// put records decode rejected.
	corrupt int

	mu sync.Mutex
	f  file // nil until first use; then the file at path, opened O_APPEND
	// err is sticky: set by Close, or by a failed append whose partial
	// record could not be cut off again.
	err       error
	size      int64
	index     map[string]span
	records   int   // records in the file, live or dead
	compactAt int64 // the size that triggers the next compaction check
	buf       []byte
}

// OpenSegment replays the segment file at path, which need not exist yet,
// and returns it with the values decode made of the live puts, in log
// order. decode rejects a payload by returning false; the record then
// counts as corrupt and its id as unbound. A nil decode keeps every put
// and returns no values. Replay stops at the first record that is torn,
// fails its CRC or does not parse, and truncates the file there. The
// file is created by the first append; perm is its mode.
func OpenSegment[M any](path string, perm fs.FileMode, decode func(id string, payload []byte) (M, bool)) (*Segment, []M, error) {
	s := &Segment{path: path, perm: perm, index: make(map[string]span), compactAt: compactMin}
	if err := s.sweepTemps(); err != nil {
		return nil, nil, err
	}
	f, err := disk.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return s, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	vals := make(map[string]M)
	end := replay(io.NewSectionReader(f, 0, st.Size()), st.Size(), func(off, n int64, kind byte, id string, payload []byte) {
		s.records++
		delete(s.index, id)
		delete(vals, id)
		if kind == kindDelete {
			return
		}
		if decode != nil {
			m, ok := decode(id, payload)
			if !ok {
				s.corrupt++
				return
			}
			vals[id] = m
		}
		s.index[id] = span{off, n}
	})
	if end < st.Size() {
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("blobstore: truncating the torn tail of %s: %w", path, err)
		}
		s.corrupt++
	}
	s.f, s.size = f, end
	if decode == nil {
		return s, nil, nil
	}
	ids := s.liveByOffset()
	out := make([]M, len(ids))
	for i, id := range ids {
		out[i] = vals[id]
	}
	return s, out, nil
}

// sweepTemps removes the staging files of a compaction a crash cut short.
func (s *Segment) sweepTemps() error {
	dir := filepath.Dir(s.path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	prefix := s.tmpPrefix()
	for _, de := range entries {
		if strings.HasPrefix(de.Name(), prefix) {
			if err := disk.Remove(filepath.Join(dir, de.Name())); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
		}
	}
	return nil
}

func (s *Segment) tmpPrefix() string { return filepath.Base(s.path) + ".tmp-" }

// replay reads records from r, which holds size bytes, calling fn with
// each record's offset, framed length and contents, until the end or the
// first record that is torn, fails its CRC or does not parse. It returns
// the offset just past the last good record. The payload and the id
// bytes are valid only during fn.
func replay(r io.Reader, size int64, fn func(off, n int64, kind byte, id string, payload []byte)) int64 {
	br := bufio.NewReaderSize(r, int(min(size, 64<<10)))
	var (
		hdr  [frameHeader]byte
		body []byte
		off  int64
	)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return off
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:4]))
		if n > size-off-frameHeader {
			return off
		}
		body = slices.Grow(body[:0], int(n))[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return off
		}
		if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(hdr[4:]) {
			return off
		}
		kind, id, payload, ok := parseBody(body)
		if !ok {
			return off
		}
		fn(off, frameHeader+n, kind, id, payload)
		off += frameHeader + n
	}
}

// parseBody splits a CRC-checked record body.
func parseBody(body []byte) (kind byte, id string, payload []byte, ok bool) {
	if len(body) < 2 {
		return 0, "", nil, false
	}
	kind, idEnd := body[0], 2+int(body[1])
	if len(body) < idEnd || (kind != kindPut && kind != kindDelete) || (kind == kindDelete && len(body) != idEnd) {
		return 0, "", nil, false
	}
	id = string(body[2:idEnd])
	if !ValidID(id) {
		return 0, "", nil, false
	}
	return kind, id, body[idEnd:], true
}

// appendFrame appends one framed record to buf.
func appendFrame(buf []byte, kind byte, id string, payload []byte) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, 0) // len and CRC, filled below
	buf = append(buf, kind, byte(len(id)))
	buf = append(buf, id...)
	buf = append(buf, payload...)
	body := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(body, crcTable))
	return buf
}

func checkRecord(id string, payload []byte) error {
	if !ValidID(id) || len(id) > maxIDLen {
		return fmt.Errorf("blobstore: bad record id %q", id)
	}
	if len(payload) > math.MaxUint32-2-len(id) {
		return fmt.Errorf("blobstore: record %s too large (%d bytes)", id, len(payload))
	}
	return nil
}

// Put appends a record binding payload to id, followed in the same write
// by a tombstone for each id of drop that is live, so a crash keeps a
// prefix of those records: the put, then some of the tombstones.
func (s *Segment) Put(id string, payload []byte, drop ...string) error {
	if err := checkRecord(id, payload); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = appendFrame(s.buf[:0], kindPut, id, payload)
	n := int64(len(s.buf))
	frames := 1
	for _, d := range drop {
		if _, ok := s.index[d]; ok && d != id {
			s.buf = appendFrame(s.buf, kindDelete, d, nil)
			frames++
		}
	}
	off := s.size
	if err := s.writeLocked(); err != nil {
		return err
	}
	for _, d := range drop {
		delete(s.index, d)
	}
	s.index[id] = span{off, n}
	s.records += frames
	s.maybeCompactLocked()
	return nil
}

// Delete appends, in one write, a tombstone for each live id of ids.
// Unbound ids need no record, so deleting one is a no-op.
func (s *Segment) Delete(ids ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = s.buf[:0]
	frames := 0
	for _, id := range ids {
		if _, ok := s.index[id]; ok {
			s.buf = appendFrame(s.buf, kindDelete, id, nil)
			frames++
		}
	}
	if frames == 0 {
		return nil
	}
	if err := s.writeLocked(); err != nil {
		return err
	}
	for _, id := range ids {
		delete(s.index, id)
	}
	s.records += frames
	s.maybeCompactLocked()
	return nil
}

// fileLocked returns the open segment file, opening it (and creating it
// on the first append) if needed. Callers hold mu.
func (s *Segment) fileLocked() (file, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.f == nil {
		f, err := disk.OpenFile(s.path, os.O_RDWR|os.O_CREATE|os.O_APPEND, s.perm)
		if err != nil {
			return nil, err
		}
		s.f = f
	}
	return s.f, nil
}

// writeLocked appends s.buf with one write. Callers hold mu.
func (s *Segment) writeLocked() error {
	buf := s.buf
	if cap(buf) > maxKeptBuf {
		s.buf = nil
	}
	f, err := s.fileLocked()
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		// A partial record left ahead of later appends would end every
		// replay there, so cut it off, or refuse further appends.
		if terr := f.Truncate(s.size); terr != nil {
			s.err = fmt.Errorf("blobstore: segment %s unusable after a failed append: %v", s.path, terr)
		}
		return err
	}
	s.size += int64(len(buf))
	return nil
}

// maybeCompactLocked compacts once the segment is past compactAt and at
// least half of its records are dead. Callers hold mu.
func (s *Segment) maybeCompactLocked() {
	if s.size < s.compactAt || 2*len(s.index) > s.records {
		return
	}
	if err := s.compactLocked(); err != nil {
		// The appended records are committed and the segment is intact;
		// retry once it has grown by another compactMin.
		s.compactAt = s.size + compactMin
		return
	}
	s.compactAt = compactMin
}

// compactLocked replaces the segment file with a copy of its live
// records, in log order, through WriteAtomic. Callers hold mu.
func (s *Segment) compactLocked() error {
	ids := s.liveByOffset()
	var live int64
	for _, id := range ids {
		live += s.index[id].n
	}
	buf := make([]byte, live)
	next := make(map[string]span, len(ids))
	var off int64
	for _, id := range ids {
		sp := s.index[id]
		if _, err := s.f.ReadAt(buf[off:off+sp.n], sp.off); err != nil {
			return err
		}
		next[id] = span{off, sp.n}
		off += sp.n
	}
	if err := WriteAtomic(s.path, s.tmpPrefix(), s.perm, buf); err != nil {
		return err
	}
	// The old file is unlinked: appends through its descriptor would be
	// lost, so drop it and reopen the path on next use.
	s.f.Close()
	s.f, s.size, s.index, s.records = nil, live, next, len(next)
	return nil
}

// liveByOffset returns the live ids in log order.
func (s *Segment) liveByOffset() []string {
	ids := make([]string, 0, len(s.index))
	for id := range s.index {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b string) int { return cmp.Compare(s.index[a].off, s.index[b].off) })
	return ids
}

// Get returns a copy of the payload bound to id, or false if none is.
func (s *Segment) Get(id string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, ok := s.index[id]
	if !ok {
		return nil, false, nil
	}
	f, err := s.fileLocked()
	if err != nil {
		return nil, false, err
	}
	frame := make([]byte, sp.n)
	if _, err := f.ReadAt(frame, sp.off); err != nil {
		return nil, false, fmt.Errorf("blobstore: reading record %s: %w", id, err)
	}
	body := frame[frameHeader:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(frame[4:]) {
		return nil, false, fmt.Errorf("blobstore: record %s in %s fails its CRC", id, s.path)
	}
	kind, got, payload, ok := parseBody(body)
	if !ok || kind != kindPut || got != id {
		return nil, false, fmt.Errorf("blobstore: record %s in %s does not parse", id, s.path)
	}
	return payload, true, nil
}

// IDs returns the live ids in sorted order.
func (s *Segment) IDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.index))
	for id := range s.index {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Corrupt counts what OpenSegment dropped: a torn or CRC-bad tail, and
// put records its decode rejected.
func (s *Segment) Corrupt() int { return s.corrupt }

// Close releases the segment file; every later operation fails.
func (s *Segment) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = errClosed
	}
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
