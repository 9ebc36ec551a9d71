package modelstore

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
// manifest of an artifact the index still served, and an id such as
// "../victim" pointed BlobPath and Delete outside the store directory.
func TestMisnamedManifestIsCorrupt(t *testing.T) {
	const (
		algoFP = "8c4f77dd72c84b6c81ac67934938fe6cc9908d31d29bf447d6330f6b311ff36a"
		v1, v2 = "b02ce43dcce6aa35", "d7131f52f9d67cd3"
	)
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "store"))); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, v2+blobstore.ManifestExt), filepath.Join(dir, "aaaaaaaaaaaaaaaa"+blobstore.ManifestExt)); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		filepath.Join(root, "victim"+BlobExt):               `not a surrogate`,
		filepath.Join(root, "victim"+blobstore.ManifestExt): `{}`,
		filepath.Join(dir, "escape"+blobstore.ManifestExt):  `{"id":"../victim","algo_fp":"x"}`,
	} {
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{v2, "../victim"} {
		if _, ok := st.Get(id); ok {
			t.Fatalf("misnamed manifest indexed as %q", id)
		}
	}
	if m, ok := st.ResolveMatching(algoFP, nil); !ok || m.ID != v1 {
		t.Fatalf("Resolve = %s ok=%v, want %s", m.ID, ok, v1)
	}
	if s := st.Stats(); s != (Stats{Artifacts: 1, Workloads: 1, Corrupt: 4}) {
		t.Fatalf("Stats = %+v", s)
	}
	removed, err := st.GC(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"aaaaaaaaaaaaaaaa.json", "cafecafecafecafe.json", "d7131f52f9d67cd3.surrogate",
		"deadbeefdeadbeef.surrogate", "escape.json", "feedfeedfeedfeed.json", "tmp-0123456789abcdef"}
	if !reflect.DeepEqual(removed, want) {
		t.Fatalf("GC removed %v, want %v", removed, want)
	}
	for _, name := range []string{"victim" + BlobExt, "victim" + blobstore.ManifestExt} {
		if _, err := os.Stat(filepath.Join(root, name)); err != nil {
			t.Fatalf("file outside the store was touched: %v", err)
		}
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := manifestIDs(re.List()); !reflect.DeepEqual(got, []string{v1}) || re.Stats().Corrupt != 0 {
		t.Fatalf("reopened List = %v, Stats %+v", got, re.Stats())
	}
}
