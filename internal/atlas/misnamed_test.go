package atlas

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mindmappings/internal/blobstore"
)

// TestMisnamedManifestIsCorrupt pins that a manifest whose id is not its
// file name is corrupt: never indexed, counted, and swept by GC. Indexing
// it under its id while GC judged liveness by file name let GC delete the
// manifest of an entry the index still served, and an id such as
// "../victim" pointed BlobPath and Delete outside the atlas directory.
func TestMisnamedManifestIsCorrupt(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "atlas")
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "store"))); err != nil {
		t.Fatal(err)
	}
	const moved = "b0f5c85c454d9c79" // the fixture's only entry for key 0fe06530…
	if err := os.Rename(filepath.Join(dir, moved+blobstore.ManifestExt), filepath.Join(dir, "aaaaaaaaaaaaaaaa"+blobstore.ManifestExt)); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		filepath.Join(root, "victim"+BlobExt):               `{"Spatial":[1]}`,
		filepath.Join(root, "victim"+blobstore.ManifestExt): `{}`,
		filepath.Join(dir, "escape"+blobstore.ManifestExt):  `{"id":"../victim","key":"k","family":"f"}`,
	} {
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range a.List() {
		if e.ID == moved || e.ID == "../victim" {
			t.Fatalf("misnamed manifest indexed as %q", e.ID)
		}
	}
	if st := a.Stats(); st != (Stats{Entries: 2, Keys: 1, Families: 1, Corrupt: 4}) {
		t.Fatalf("Stats = %+v", st)
	}
	removed, err := a.GC(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"6f68ea96d74577c4", "aaaaaaaaaaaaaaaa.json", moved + BlobExt, "cafecafecafecafe.json",
		"deadbeefdeadbeef.mapping", "escape.json", "feedfeedfeedfeed.json", "tmp-0123456789abcdef"}
	if !reflect.DeepEqual(removed, want) {
		t.Fatalf("GC removed %v, want %v", removed, want)
	}
	for _, name := range []string{"victim" + BlobExt, "victim" + blobstore.ManifestExt} {
		if _, err := os.Stat(filepath.Join(root, name)); err != nil {
			t.Fatalf("file outside the atlas was touched: %v", err)
		}
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st != (Stats{Entries: 1, Keys: 1, Families: 1, Corrupt: 0}) {
		t.Fatalf("reopened Stats = %+v", st)
	}
}
