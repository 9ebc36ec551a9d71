package blobstore

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// openRecords opens dir's records through OpenRecords and returns the
// ids of the manifests it indexed.
func openRecords(t *testing.T, dir string) (*Segment, *Store, []string) {
	t.Helper()
	seg, legacy, ms, err := OpenRecords(dir, "s.log", blobExt, decode)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	var ids []string
	for _, m := range ms {
		ids = append(ids, m.ID)
	}
	return seg, legacy, ids
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

// failRename makes the rename onto a path with the given suffix fail.
func failRename(t *testing.T, suffix string) {
	useLayer(t, faultLayer{rename: func(from, to string) error {
		if strings.HasSuffix(to, suffix) {
			return errInjected
		}
		return os.Rename(from, to)
	}})
}

// TestCrashDebrisInvisibleAndSwept lays down a committed entry of the
// per-file layout, what a crash at each point of a per-file publish or
// remove left behind, and hand-damaged manifests. OpenRecords must migrate
// the entry into the segment and remove its files, none of the debris may
// become visible, each corrupt manifest is counted, and Sweep removes
// exactly the debris.
func TestCrashDebrisInvisibleAndSwept(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write(t, filepath.Join(dir, "live.blob"), `blob live`)
	write(t, filepath.Join(dir, "live.json"), `{"id":"live"}`)
	write(t, filepath.Join(dir, TmpPrefix+"0123456789abcdef"), `blob to`) // torn staging file
	write(t, filepath.Join(dir, "orphan.blob"), `blob orphan`)            // blob renamed, manifest not
	write(t, filepath.Join(dir, "blobless.json"), `{"id":"blobless"}`)    // remove cut after the manifest
	write(t, filepath.Join(dir, "torn.json"), `{"id":"to`)                // unparseable
	write(t, filepath.Join(dir, "misnamed.json"), `{"id":"live"}`)        // claims another entry's ID
	write(t, filepath.Join(dir, "escape.json"), `{"id":"../victim"}`)     // ID outside the directory
	write(t, filepath.Join(root, "victim.blob"), `not the store's`)
	write(t, filepath.Join(root, "victim.json"), `{"id":"../victim"}`)
	write(t, filepath.Join(dir, "README"), `not the store's`)

	seg, legacy, ids := openRecords(t, dir)
	if !reflect.DeepEqual(ids, []string{"live"}) {
		t.Fatalf("debris became visible: %v", ids)
	}
	if got := legacy.Corrupt(); got != 4 {
		t.Fatalf("Corrupt = %d, want 4 (blobless, torn, misnamed, escape)", got)
	}
	payload, ok, err := seg.Get("live")
	if manifest, blob, _ := SplitRecord(payload); err != nil || !ok || string(manifest) != `{"id":"live"}` || string(blob) != "blob live" {
		t.Fatalf("migrated record = %q, %v, %v", payload, ok, err)
	}
	removed, err := legacy.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"blobless.json", "escape.json", "misnamed.json", "orphan.blob", TmpPrefix + "0123456789abcdef", "torn.json"}
	if !reflect.DeepEqual(removed, want) {
		t.Fatalf("Sweep removed %v, want %v", removed, want)
	}
	if got, want := files(t, dir), []string{"README", "s.log"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("files after Sweep = %v, want %v", got, want)
	}
	if got, want := files(t, root), []string{"store", "victim.blob", "victim.json"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("files outside the store = %v, want %v", got, want)
	}
	if legacy.Corrupt() != 0 {
		t.Fatal("Sweep did not reset the corrupt count")
	}
	if _, legacy, ids := openRecords(t, dir); !reflect.DeepEqual(ids, []string{"live"}) || legacy.Corrupt() != 0 {
		t.Fatalf("reopened after Sweep: ids=%v corrupt=%d", ids, legacy.Corrupt())
	}
}

func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.json")
	if err := WriteAtomic(path, ".tmp-rec-", 0o600, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o600 {
		t.Fatalf("stat = %v, %v; want mode 0600", st, err)
	}
	// A failing rename keeps the old record and leaves no temp.
	t.Run("rename", func(t *testing.T) {
		failRename(t, "rec.json")
		if err := WriteAtomic(path, ".tmp-rec-", 0o600, []byte("v3")); !errors.Is(err, errInjected) {
			t.Fatalf("rename error = %v", err)
		}
	})
	if raw, _ := os.ReadFile(path); string(raw) != "v1" {
		t.Fatalf("record = %q after failed writes, want v1", raw)
	}
	if got := files(t, dir); !reflect.DeepEqual(got, []string{"rec.json"}) {
		t.Fatalf("files = %v, want only the record", got)
	}
	if err := WriteAtomic(path, ".tmp-rec-", 0o600, []byte("v4")); err != nil {
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
