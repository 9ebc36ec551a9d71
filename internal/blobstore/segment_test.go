package blobstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func openSegment(t *testing.T, path string) *Segment {
	t.Helper()
	s, _, err := OpenSegment[struct{}](path, 0o644, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func get(t *testing.T, s *Segment, id string) string {
	t.Helper()
	raw, ok, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return "<none>"
	}
	return string(raw)
}

func size(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestSegmentPutDeleteReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.log")
	s := openSegment(t, path)
	if got := files(t, dir); len(got) != 0 {
		t.Fatalf("opening created files: %v", got)
	}
	for _, step := range []func() error{
		func() error { return s.Put("a", []byte("a1")) },
		func() error { return s.Put("b", []byte("b1")) },
		func() error { return s.Put("a", []byte("a2")) },
		func() error { return s.Put("c", []byte("c1"), "b", "zz") }, // drops b; zz is unbound
		func() error { return s.Delete("c", "never") },
		func() error { return s.Delete("c") }, // idempotent: writes nothing
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	// Five records: a1, b1, a2, c1 with b's tombstone in one write, c's tombstone.
	wantSize := int64(4*(frameHeader+2+1+2) + 2*(frameHeader+2+1))
	if got := size(t, path); got != wantSize {
		t.Fatalf("segment size %d, want %d", got, wantSize)
	}
	for _, seg := range []*Segment{s, openSegment(t, path)} {
		if ids := seg.IDs(); !reflect.DeepEqual(ids, []string{"a"}) || seg.Corrupt() != 0 {
			t.Fatalf("ids = %v corrupt=%d", ids, seg.Corrupt())
		}
		if got := get(t, seg, "a"); got != "a2" {
			t.Fatalf("a = %q, want a2", got)
		}
		if got := get(t, seg, "b"); got != "<none>" {
			t.Fatalf("b = %q after its tombstone", got)
		}
	}
	for _, id := range []string{"", "../x", strings.Repeat("x", maxIDLen+1)} {
		if err := s.Put(id, nil); err == nil {
			t.Errorf("Put(%q) accepted", id)
		}
	}
}

// TestSegmentDropsBadTail damages the last record every way a crash or a
// bad disk can — cut short, a payload byte flipped, a length past the end,
// garbage behind a good record — and checks that reopening keeps every
// earlier record, truncates the file there and counts one corrupt tail.
func TestSegmentDropsBadTail(t *testing.T) {
	good := appendFrame(appendFrame(nil, kindPut, "a", []byte("one")), kindPut, "b", []byte("two"))
	last := appendFrame(nil, kindPut, "c", []byte("three"))
	for name, tail := range map[string][]byte{
		"torn":        last[:len(last)-2],
		"header only": last[:frameHeader-3],
		"crc-bad":     append(bytes.Clone(last[:len(last)-1]), last[len(last)-1]^1),
		"long length": binary.LittleEndian.AppendUint32(bytes.Clone(last[:0]), 1<<30),
		"bad kind":    appendFrame(nil, 9, "c", nil),
		"bad id":      appendFrame(nil, kindPut, "../c", nil),
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.log")
			write(t, path, string(good)+string(tail))
			s := openSegment(t, path)
			if ids := s.IDs(); !reflect.DeepEqual(ids, []string{"a", "b"}) || s.Corrupt() != 1 {
				t.Fatalf("ids = %v corrupt=%d", ids, s.Corrupt())
			}
			if got := size(t, path); got != int64(len(good)) {
				t.Fatalf("size after reopen %d, want %d", got, len(good))
			}
			if err := s.Put("c", []byte("3")); err != nil {
				t.Fatal(err)
			}
			r := openSegment(t, path)
			if ids := r.IDs(); !reflect.DeepEqual(ids, []string{"a", "b", "c"}) || r.Corrupt() != 0 || get(t, r, "c") != "3" {
				t.Fatalf("after append: ids = %v corrupt=%d", ids, r.Corrupt())
			}
		})
	}
}

func TestSegmentDecodeRejects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	s := openSegment(t, path)
	for _, id := range []string{"a", "b", "c"} {
		if err := s.Put(id, []byte("payload "+id)); err != nil {
			t.Fatal(err)
		}
	}
	r, vals, err := OpenSegment(path, 0o644, func(id string, payload []byte) (string, bool) {
		return string(payload), id != "b"
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if want := []string{"payload a", "payload c"}; !reflect.DeepEqual(vals, want) || r.Corrupt() != 1 {
		t.Fatalf("values = %q corrupt=%d", vals, r.Corrupt())
	}
	if ids := r.IDs(); !reflect.DeepEqual(ids, []string{"a", "c"}) {
		t.Fatalf("ids = %v", ids)
	}
}

// shortWriteFile writes half of its first Write and fails it.
type shortWriteFile struct {
	file
	failed *bool
}

func (f shortWriteFile) Write(p []byte) (int, error) {
	if *f.failed {
		return f.file.Write(p)
	}
	*f.failed = true
	n, _ := f.file.Write(p[:len(p)/2])
	return n, errInjected
}

// TestSegmentFailedAppendIsCutOff pins that a write that fails half done
// leaves no partial record ahead of later appends.
func TestSegmentFailedAppendIsCutOff(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	s := openSegment(t, path)
	if err := s.Put("a", []byte("one")); err != nil {
		t.Fatal(err)
	}
	failed := false
	useLayer(t, faultLayer{openFile: func(name string, flag int, perm os.FileMode) (file, error) {
		f, err := osLayer{}.OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		return shortWriteFile{f, &failed}, nil
	}})
	s.Close()
	s = openSegment(t, path)
	if err := s.Put("b", []byte("two")); err == nil {
		t.Fatal("a failed write reported success")
	}
	if err := s.Put("c", []byte("three")); err != nil {
		t.Fatal(err)
	}
	r := openSegment(t, path)
	if ids := r.IDs(); !reflect.DeepEqual(ids, []string{"a", "c"}) || r.Corrupt() != 0 {
		t.Fatalf("ids = %v corrupt=%d", ids, r.Corrupt())
	}
}

// TestSegmentDropsLargeBuffer pins that the append buffer stays bounded: a
// model-sized record does not leave a model-sized buffer pinned for the
// life of the segment, while a small one keeps its buffer for reuse.
func TestSegmentDropsLargeBuffer(t *testing.T) {
	s := openSegment(t, filepath.Join(t.TempDir(), "s.log"))
	if err := s.Put("small", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if cap(s.buf) == 0 {
		t.Fatal("a small append dropped its buffer")
	}
	big := bytes.Repeat([]byte("m"), 4*maxKeptBuf)
	if err := s.Put("big", big); err != nil {
		t.Fatal(err)
	}
	if c := cap(s.buf); c > maxKeptBuf {
		t.Fatalf("append buffer holds %d bytes after a %d-byte record, want ≤ %d", c, len(big), maxKeptBuf)
	}
	if err := s.Delete("small"); err != nil {
		t.Fatal(err)
	}
	if c := cap(s.buf); c == 0 || c > maxKeptBuf {
		t.Fatalf("append buffer holds %d bytes after a tombstone", c)
	}
	if !bytes.Equal([]byte(get(t, s, "big")), big) {
		t.Fatal("the large record reads back changed")
	}
}

// TestSegmentCompaction overwrites one id until the segment passes
// compactMin with most records dead: the file shrinks to the live
// records, in log order, and serves and reopens as before.
func TestSegmentCompaction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.log")
	s := openSegment(t, path)
	big := bytes.Repeat([]byte("x"), compactMin/4)
	if err := s.Put("keep", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	for i := 0; size(t, path) < compactMin/2 || i < 3; i++ {
		if err := s.Put("hot", append(big, byte('0'+i))); err != nil {
			t.Fatal(err)
		}
	}
	last := append(big, 'z')
	for size(t, path) > compactMin/2 {
		if err := s.Put("hot", last); err != nil {
			t.Fatal(err)
		}
	}
	live := int64(2*frameHeader + 2 + len("keep") + len("kept") + 2 + len("hot") + len(last))
	if got := size(t, path); got != live {
		t.Fatalf("compacted size %d, want the %d live bytes", got, live)
	}
	if got := files(t, dir); !reflect.DeepEqual(got, []string{"s.log"}) {
		t.Fatalf("files after compaction = %v", got)
	}
	if err := s.Put("new", []byte("after")); err != nil {
		t.Fatal(err)
	}
	for _, seg := range []*Segment{s, openSegment(t, path)} {
		if ids := seg.IDs(); !reflect.DeepEqual(ids, []string{"hot", "keep", "new"}) {
			t.Fatalf("ids = %v", ids)
		}
		if get(t, seg, "keep") != "kept" || get(t, seg, "hot") != string(last) || get(t, seg, "new") != "after" {
			t.Fatal("compaction changed a live payload")
		}
	}
}

// TestSegmentCrashPrefixes records the file ops of puts, deletes and a
// compaction, then reopens every prefix of that log, and every prefix
// ending in a torn write: each must hold exactly the state after the last
// operation that completed, or after the one in flight.
func TestSegmentCrashPrefixes(t *testing.T) {
	rec := Record(t)
	path := filepath.Join(rec.Root(), "s.log")
	s := openSegment(t, path)
	big := bytes.Repeat([]byte("y"), compactMin/3)
	state := map[string]string{}
	ends := []int{0}
	states := []map[string]string{{}}
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		snap := map[string]string{}
		for k, v := range state {
			snap[k] = v
		}
		ends = append(ends, rec.Len())
		states = append(states, snap)
	}
	state["a"] = "1"
	step(s.Put("a", []byte("1")))
	for i := range 4 {
		v := fmt.Sprintf("%s%d", big, i)
		state["b"] = v
		step(s.Put("b", []byte(v)))
	}
	delete(state, "a")
	step(s.Delete("a"))
	state["c"] = "3"
	step(s.Put("c", []byte("3")))
	if !strings.Contains(fmt.Sprint(rec.Ops()), "rename") {
		t.Fatal("the scenario never compacted")
	}
	ops := rec.Ops()
	for k := 0; k <= len(ops); k++ {
		check := func(ops []Op, torn bool) {
			dir := t.TempDir()
			if err := Rebuild(dir, ops); err != nil {
				t.Fatal(err)
			}
			got := map[string]string{}
			r := openSegment(t, filepath.Join(dir, "s.log"))
			for _, id := range r.IDs() {
				got[id] = get(t, r, id)
			}
			// done is the last step whose ops all landed whole; a step with
			// some ops landed, or torn, was in flight and may show either way.
			done, whole := 0, len(ops)
			if torn {
				whole--
			}
			for done+1 < len(ends) && ends[done+1] <= whole {
				done++
			}
			inFlight := torn || whole > ends[done]
			if reflect.DeepEqual(got, states[done]) || (inFlight && reflect.DeepEqual(got, states[done+1])) {
				return
			}
			t.Fatalf("prefix %d (torn %v): state %v, want %v", k, torn, keys(got), keys(states[done]))
		}
		check(ops[:k], false)
		if k > 0 && ops[k-1].Kind == "write" {
			torn := append([]Op(nil), ops[:k]...)
			torn[k-1].Data = torn[k-1].Data[:len(torn[k-1].Data)/2]
			check(torn, true)
		}
	}
}

func keys(m map[string]string) map[string]int {
	out := map[string]int{}
	for k, v := range m {
		out[k] = len(v)
	}
	return out
}

// TestSegmentConcurrent races puts, deletes and reads of distinct ids
// through one segment; run it under -race.
func TestSegmentConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	s := openSegment(t, path)
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				id := fmt.Sprintf("w%d-%d", w, i%5)
				if err := s.Put(id, []byte(id)); err != nil {
					t.Error(err)
					return
				}
				if raw, ok, err := s.Get(id); err != nil || !ok || string(raw) != id {
					t.Errorf("Get(%s) = %q %v %v", id, raw, ok, err)
					return
				}
				if i%3 == 0 {
					if err := s.Delete(id); err != nil {
						t.Error(err)
						return
					}
				}
				s.IDs()
			}
		}()
	}
	wg.Wait()
	r := openSegment(t, path)
	if !reflect.DeepEqual(r.IDs(), s.IDs()) {
		t.Fatalf("reopened ids %v, want %v", r.IDs(), s.IDs())
	}
}

// FuzzSegmentReplay feeds replay arbitrary bytes: it must not panic, must
// hand back only whole records whose CRC checks, back to back from offset
// 0, and must stop at an offset inside the input.
func FuzzSegmentReplay(f *testing.F) {
	for _, fixture := range []string{
		filepath.Join("..", "atlas", "testdata", "segment", "atlas.log"),
		filepath.Join("..", "resilience", "testdata", "journal-segment", "journal.log"),
		filepath.Join("..", "modelstore", "testdata", "segment", "models.log"),
	} {
		data, err := os.ReadFile(fixture)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(appendFrame(appendFrame(nil, kindPut, "a", []byte("x")), kindDelete, "a", nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var next int64
		end := replay(bytes.NewReader(data), int64(len(data)), func(off, n int64, kind byte, id string, payload []byte) {
			if off != next || n < frameHeader || off+n > int64(len(data)) {
				t.Fatalf("record at %d+%d after %d in %d bytes", off, n, next, len(data))
			}
			frame := data[off : off+n]
			if binary.LittleEndian.Uint32(frame) != uint32(n-frameHeader) ||
				crc32.Checksum(frame[frameHeader:], crcTable) != binary.LittleEndian.Uint32(frame[4:]) {
				t.Fatalf("record at %d fails its CRC", off)
			}
			if !bytes.Equal(appendFrame(nil, kind, id, payload), frame) {
				t.Fatalf("record at %d does not re-encode", off)
			}
			next = off + n
		})
		if end != next || end > int64(len(data)) {
			t.Fatalf("replay stopped at %d after a record ending at %d, input %d bytes", end, next, len(data))
		}
	})
}
