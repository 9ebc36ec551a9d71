package blobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

const blobExt = ".blob"

type manifest struct {
	ID string `json:"id"`
}

func decode(raw []byte) (m manifest, id string) {
	if json.Unmarshal(raw, &m) != nil {
		return m, ""
	}
	return m, m.ID
}

func openStore(t *testing.T, dir string) (*Store, []string) {
	t.Helper()
	s, ms, err := Open(dir, blobExt, decode)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, m := range ms {
		ids = append(ids, m.ID)
	}
	return s, ids
}

// publish runs the protocol the typed layers run: stage outside any lock,
// then commit.
func publish(s *Store, id string) error {
	tmp, err := s.Stage([]byte("blob " + id))
	if err != nil {
		return err
	}
	raw, _ := json.Marshal(manifest{ID: id})
	return s.Commit(tmp, id, raw)
}

func files(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

func write(t *testing.T, path, data string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestPublishReopenRemove(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	for _, id := range []string{"b", "a"} {
		if err := publish(s, id); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := files(t, dir), []string{"a.blob", "a.json", "b.blob", "b.json"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("files = %v, want %v", got, want)
	}
	if raw, err := os.ReadFile(s.BlobPath("a")); err != nil || string(raw) != "blob a" {
		t.Fatalf("blob a = %q, %v", raw, err)
	}
	s2, ids := openStore(t, dir)
	if want := []string{"a", "b"}; !reflect.DeepEqual(ids, want) || s2.Corrupt() != 0 {
		t.Fatalf("reopened ids = %v corrupt=%d", ids, s2.Corrupt())
	}
	if err := s2.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Remove("a"); err != nil {
		t.Fatalf("removing a removed entry: %v", err)
	}
	if got, want := files(t, dir), []string{"b.blob", "b.json"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("files after Remove = %v, want %v", got, want)
	}
}

var errInjected = errors.New("injected")

// faultLayer is the OS file layer with its OpenFile or Rename overridden.
type faultLayer struct {
	osLayer
	openFile func(name string, flag int, perm fs.FileMode) (file, error)
	rename   func(from, to string) error
}

func (l faultLayer) OpenFile(name string, flag int, perm fs.FileMode) (file, error) {
	if l.openFile != nil {
		return l.openFile(name, flag, perm)
	}
	return l.osLayer.OpenFile(name, flag, perm)
}

func (l faultLayer) Rename(from, to string) error {
	if l.rename != nil {
		return l.rename(from, to)
	}
	return l.osLayer.Rename(from, to)
}

func useLayer(t *testing.T, l fileLayer) {
	disk = l
	t.Cleanup(func() { disk = osLayer{} })
}

// failOpen makes the nth file open (1-based) fail: before creating the
// file, or — torn — after creating it, so the write fails half-done.
func failOpen(t *testing.T, nth int, torn bool) {
	calls := 0
	useLayer(t, faultLayer{openFile: func(name string, flag int, perm fs.FileMode) (file, error) {
		if calls++; calls != nth {
			return osLayer{}.OpenFile(name, flag, perm)
		}
		if !torn {
			return nil, errInjected
		}
		f, err := os.OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		f.Close()
		return os.Open(name) // read-only: the write fails on a file that exists
	}})
}

// failRename makes the rename onto a path with the given suffix fail.
func failRename(t *testing.T, suffix string) {
	useLayer(t, faultLayer{rename: func(from, to string) error {
		if strings.HasSuffix(to, suffix) {
			return errInjected
		}
		return os.Rename(from, to)
	}})
}

// TestFaultAtEachCommitStep injects an error at every write step of a
// publish. Each must fail cleanly: no new file survives, the committed
// entry is untouched, a reopen sees exactly what it saw before, and the
// same publish succeeds once the fault clears.
func TestFaultAtEachCommitStep(t *testing.T) {
	for _, tc := range []struct {
		step   string
		inject func(t *testing.T)
	}{
		{"stage blob", func(t *testing.T) { failOpen(t, 1, false) }},
		{"stage blob torn", func(t *testing.T) { failOpen(t, 1, true) }},
		{"stage manifest", func(t *testing.T) { failOpen(t, 2, false) }},
		{"stage manifest torn", func(t *testing.T) { failOpen(t, 2, true) }},
		{"blob rename", func(t *testing.T) { failRename(t, blobExt) }},
		{"manifest rename", func(t *testing.T) { failRename(t, ManifestExt) }},
	} {
		t.Run(tc.step, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := openStore(t, dir)
			if err := publish(s, "old"); err != nil {
				t.Fatal(err)
			}
			before := files(t, dir)
			t.Run("inject", func(t *testing.T) {
				tc.inject(t)
				if err := publish(s, "new"); err == nil {
					t.Fatal("publish survived the injected fault")
				}
			})
			if got := files(t, dir); !reflect.DeepEqual(got, before) {
				t.Fatalf("files after failed publish = %v, want %v", got, before)
			}
			if len(s.pending) != 0 {
				t.Fatalf("failed publish left pending staging files: %v", s.pending)
			}
			s2, ids := openStore(t, dir)
			if !reflect.DeepEqual(ids, []string{"old"}) || s2.Corrupt() != 0 {
				t.Fatalf("reopened ids = %v corrupt=%d", ids, s2.Corrupt())
			}
			if err := publish(s2, "new"); err != nil {
				t.Fatalf("publish after the fault cleared: %v", err)
			}
		})
	}
}

// TestCrashDebrisInvisibleAndSwept lays down what a crash at each point
// of publish or remove leaves behind, plus hand-damaged manifests. None
// may become visible, each corrupt manifest is counted, and Sweep removes
// exactly the debris.
func TestCrashDebrisInvisibleAndSwept(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	s, _ := openStore(t, dir)
	if err := publish(s, "live"); err != nil {
		t.Fatal(err)
	}
	write(t, filepath.Join(dir, TmpPrefix+"0123456789abcdef"), `blob to`) // torn staging file
	write(t, filepath.Join(dir, "orphan.blob"), `blob orphan`)            // blob renamed, manifest not
	write(t, filepath.Join(dir, "blobless.json"), `{"id":"blobless"}`)    // remove cut after the manifest
	write(t, filepath.Join(dir, "torn.json"), `{"id":"to`)                // unparseable
	write(t, filepath.Join(dir, "misnamed.json"), `{"id":"live"}`)        // claims another entry's ID
	write(t, filepath.Join(dir, "escape.json"), `{"id":"../victim"}`)     // ID outside the directory
	write(t, filepath.Join(root, "victim.blob"), `not the store's`)
	write(t, filepath.Join(root, "victim.json"), `{"id":"../victim"}`)
	write(t, filepath.Join(dir, "README"), `not the store's`)

	s2, ids := openStore(t, dir)
	if !reflect.DeepEqual(ids, []string{"live"}) {
		t.Fatalf("debris became visible: %v", ids)
	}
	if got := s2.Corrupt(); got != 4 {
		t.Fatalf("Corrupt = %d, want 4 (blobless, torn, misnamed, escape)", got)
	}
	removed, err := s2.Sweep(func(id string) bool { return id == "live" })
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"blobless.json", "escape.json", "misnamed.json", "orphan.blob", TmpPrefix + "0123456789abcdef", "torn.json"}
	if !reflect.DeepEqual(removed, want) {
		t.Fatalf("Sweep removed %v, want %v", removed, want)
	}
	if got, want := files(t, dir), []string{"README", "live.blob", "live.json"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("files after Sweep = %v, want %v", got, want)
	}
	if got, want := files(t, root), []string{"store", "victim.blob", "victim.json"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("files outside the store = %v, want %v", got, want)
	}
	if s2.Corrupt() != 0 {
		t.Fatal("Sweep did not reset the corrupt count")
	}
	if s3, ids := openStore(t, dir); !reflect.DeepEqual(ids, []string{"live"}) || s3.Corrupt() != 0 {
		t.Fatalf("reopened after Sweep: ids=%v corrupt=%d", ids, s3.Corrupt())
	}
}

// TestSweepSparesStagedBlob pins the pending registry: a blob staged
// outside the caller's lock survives a Sweep that runs before its commit.
func TestSweepSparesStagedBlob(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	tmp, err := s.Stage([]byte("blob x"))
	if err != nil {
		t.Fatal(err)
	}
	removed, err := s.Sweep(func(string) bool { return false })
	if err != nil || len(removed) != 0 {
		t.Fatalf("Sweep removed %v, %v", removed, err)
	}
	if err := s.Commit(tmp, "x", []byte(`{"id":"x"}`)); err != nil {
		t.Fatalf("commit after Sweep: %v", err)
	}
	discarded, err := s.Stage([]byte("blob y"))
	if err != nil {
		t.Fatal(err)
	}
	s.Discard(discarded)
	if removed, err := s.Sweep(func(id string) bool { return id == "x" }); err != nil || len(removed) != 0 {
		t.Fatalf("Sweep after commit and discard removed %v, %v", removed, err)
	}
	if got, want := files(t, dir), []string{"x.blob", "x.json"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("files = %v, want %v", got, want)
	}
}

// TestConcurrentPublishAndSweep races publishers, which stage outside the
// index lock, against a sweeper: no staged blob and no committed entry is
// ever swept, so every commit succeeds and a reopen sees every entry.
func TestConcurrentPublishAndSweep(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	var (
		mu   sync.Mutex // the typed layer's index lock
		live = map[string]bool{}
		wg   sync.WaitGroup
		done = make(chan struct{})
	)
	isLive := func(id string) bool { return live[id] }
	const writers, each = 4, 25
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("w%d-%02d", w, i)
				tmp, err := s.Stage([]byte(id))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if i%5 == 4 { // a lost publish race: the staged blob is dropped
					s.Discard(tmp)
				} else if err := s.Commit(tmp, id, []byte(`{"id":"`+id+`"}`)); err != nil {
					t.Errorf("commit %s: %v", id, err)
				} else {
					live[id] = true
				}
				mu.Unlock()
			}
		}(w)
	}
	swept := make(chan []string)
	go func() {
		var all []string
		for {
			select {
			case <-done:
				swept <- all
				return
			default:
			}
			mu.Lock()
			removed, err := s.Sweep(isLive)
			mu.Unlock()
			if err != nil {
				t.Error(err)
			}
			all = append(all, removed...)
		}
	}()
	wg.Wait()
	close(done)
	if removed := <-swept; len(removed) != 0 {
		t.Fatalf("Sweep took files of in-flight or committed publishes: %v", removed)
	}
	_, ids := openStore(t, dir)
	want := make([]string, 0, len(live))
	for id := range live {
		want = append(want, id)
	}
	slices.Sort(want)
	if len(want) != writers*each*4/5 || !reflect.DeepEqual(ids, want) {
		t.Fatalf("reopened %d entries, want the %d committed", len(ids), len(want))
	}
	for _, name := range files(t, dir) {
		if strings.HasPrefix(name, TmpPrefix) {
			t.Fatalf("staging file left behind: %s", name)
		}
	}
}

func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.json")
	noop := func() error { return nil }
	if err := WriteAtomic(path, ".tmp-rec-", 0o600, []byte("v1"), noop); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o600 {
		t.Fatalf("stat = %v, %v; want mode 0600", st, err)
	}
	// A failing hook or rename keeps the old record and leaves no temp.
	if err := WriteAtomic(path, ".tmp-rec-", 0o600, []byte("v2"), func() error { return errInjected }); !errors.Is(err, errInjected) {
		t.Fatalf("hook error = %v", err)
	}
	t.Run("rename", func(t *testing.T) {
		failRename(t, "rec.json")
		if err := WriteAtomic(path, ".tmp-rec-", 0o600, []byte("v3"), noop); !errors.Is(err, errInjected) {
			t.Fatalf("rename error = %v", err)
		}
	})
	if raw, _ := os.ReadFile(path); string(raw) != "v1" {
		t.Fatalf("record = %q after failed writes, want v1", raw)
	}
	if got := files(t, dir); !reflect.DeepEqual(got, []string{"rec.json"}) {
		t.Fatalf("files = %v, want only the record", got)
	}
	if err := WriteAtomic(path, ".tmp-rec-", 0o600, []byte("v4"), noop); err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(path); string(raw) != "v4" {
		t.Fatalf("record = %q, want v4", raw)
	}
}

func TestFailpoint(t *testing.T) {
	var f Failpoint
	if err := f.Fire("op"); err != nil {
		t.Fatalf("zero Failpoint fired: %v", err)
	}
	var ops []string
	f.Set(func(op string) error { ops = append(ops, op); return errInjected })
	if err := f.Fire("store.publish"); !errors.Is(err, errInjected) || !reflect.DeepEqual(ops, []string{"store.publish"}) {
		t.Fatalf("Fire = %v, ops %v", err, ops)
	}
	f.Set(nil)
	if err := f.Fire("op"); err != nil {
		t.Fatalf("cleared Failpoint fired: %v", err)
	}
}

func TestValidID(t *testing.T) {
	for id, want := range map[string]bool{
		"0123abcd": true, "job-7": true, "": false, ".": false, "..": false,
		"../x": false, "a/b": false, `a\b`: false, ".hidden": false,
	} {
		if got := ValidID(id); got != want {
			t.Errorf("ValidID(%q) = %v, want %v", id, got, want)
		}
	}
}
