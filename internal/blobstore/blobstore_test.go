package blobstore

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

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
