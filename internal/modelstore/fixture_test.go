package modelstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// openFixture copies the checked-in store under testdata/store into a
// scratch directory and opens it. The fixture holds two committed conv1d
// surrogates (hidden layer [4], versions 1 and 2) plus crash debris: a
// torn tmp- file, an orphan blob, a blobless manifest, an unparseable
// manifest, and one file that is not the store's at all.
func openFixture(t *testing.T) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "store"))); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, dir
}

func manifestIDs(ms []Manifest) []string {
	var ids []string
	for _, m := range ms {
		ids = append(ids, m.ID)
	}
	return ids
}

// TestFixtureStoreReopens pins the on-disk format: the checked-in store
// must reopen, resolve, load, and garbage-collect exactly as when it was
// written.
func TestFixtureStoreReopens(t *testing.T) {
	const (
		algoFP = "8c4f77dd72c84b6c81ac67934938fe6cc9908d31d29bf447d6330f6b311ff36a"
		v1, v2 = "b02ce43dcce6aa35", "d7131f52f9d67cd3"
	)
	st, dir := openFixture(t)
	if got, want := manifestIDs(st.List()), []string{v1, v2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	if s := st.Stats(); s != (Stats{Artifacts: 2, Workloads: 1, Corrupt: 2}) {
		t.Fatalf("Stats = %+v", s)
	}
	m, ok := st.ResolveMatching(algoFP, nil)
	if !ok || m.ID != v2 || m.Version != 2 || m.Seed != 2 || !reflect.DeepEqual(m.HiddenSizes, []int{4}) {
		t.Fatalf("Resolve = %+v ok=%v", m, ok)
	}
	for _, id := range []string{v1, v2} {
		sur, err := st.Load(id)
		if err != nil {
			t.Fatal(err)
		}
		if sur.AlgoName != "conv1d" || sur.AlgoFP != algoFP {
			t.Fatalf("Load(%s) = %s/%s", id, sur.AlgoName, sur.AlgoFP)
		}
	}

	removed, err := st.GC(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{v1, "cafecafecafecafe.json", "deadbeefdeadbeef.surrogate", "feedfeedfeedfeed.json", "tmp-0123456789abcdef"}
	if !reflect.DeepEqual(removed, want) {
		t.Fatalf("GC removed %v, want %v", removed, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Fatalf("GC touched a foreign file: %v", err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Stats{st.Stats(), re.Stats()} {
		if s != (Stats{Artifacts: 1, Workloads: 1, Corrupt: 0}) {
			t.Fatalf("Stats after GC = %+v", s)
		}
	}
	if got, want := manifestIDs(re.List()), []string{v2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened List = %v, want %v", got, want)
	}
}

// TestFixtureStoreMigrates pins the migration of the per-file layout: Open
// moves each committed artifact into the segment and removes its files,
// leaving the debris for GC, and a reopen serves the same artifacts, blob
// for blob, from the segment alone.
func TestFixtureStoreMigrates(t *testing.T) {
	st, dir := openFixture(t)
	want := manifestIDs(st.List())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	debris := []string{"cafecafecafecafe.json", "deadbeefdeadbeef.surrogate", "feedfeedfeedfeed.json", SegmentFile, "notes.txt", "tmp-0123456789abcdef"}
	if !reflect.DeepEqual(names, debris) {
		t.Fatalf("files after migration = %v, want %v", names, debris)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := manifestIDs(re.List()); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened List = %v, want %v", got, want)
	}
	for _, id := range want {
		blob, err := re.Blob(id)
		if err != nil {
			t.Fatal(err)
		}
		orig, err := os.ReadFile(filepath.Join("testdata", "store", id+BlobExt))
		if err != nil || !bytes.Equal(blob, orig) {
			t.Fatalf("migrated blob %s differs from its file (%v)", id, err)
		}
	}
}

// TestSegmentFixtureReopens pins the segment format. The checked-in
// testdata/segment/models.log holds the per-file fixture's two conv1d
// artifacts, published as versions 1 and 2 (the second superseding the
// first for "auto"), a third that a tombstone deleted, and the first half
// of a fourth publish that a crash tore. Reopening a copy must truncate
// the torn tail and count it corrupt, serve both live artifacts with
// their blobs byte for byte, and take new publishes.
func TestSegmentFixtureReopens(t *testing.T) {
	const (
		algoFP   = "8c4f77dd72c84b6c81ac67934938fe6cc9908d31d29bf447d6330f6b311ff36a"
		v1, v2   = "b02ce43dcce6aa35", "d7131f52f9d67cd3"
		deleted  = "3fef874ccf536dba"
		goodSize = 9864 // the offset just past the last whole record
	)
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "segment"))); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := manifestIDs(st.List()), []string{v1, v2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	if s := st.Stats(); s != (Stats{Artifacts: 2, Workloads: 1, Corrupt: 1}) {
		t.Fatalf("Stats = %+v", s)
	}
	if fi, err := os.Stat(filepath.Join(dir, SegmentFile)); err != nil || fi.Size() != goodSize {
		t.Fatalf("segment after reopen: %v, %v; want %d bytes", fi, err, goodSize)
	}
	m, ok := st.ResolveMatching(algoFP, nil)
	if !ok || m.ID != v2 || m.Version != 2 || m.Parent != v1 || !reflect.DeepEqual(m.HiddenSizes, []int{4}) {
		t.Fatalf("Resolve = %+v ok=%v", m, ok)
	}
	for _, id := range []string{v1, v2} {
		blob, err := st.Blob(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "store", id+BlobExt))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, want) {
			t.Fatalf("Blob(%s) differs from the per-file fixture's blob", id)
		}
		if sur, err := st.Load(id); err != nil || sur.AlgoFP != algoFP {
			t.Fatalf("Load(%s): %v", id, err)
		}
	}
	if _, err := st.Load(deleted); !errors.Is(err, ErrUnknownArtifact) {
		t.Fatalf("Load of the deleted artifact: %v", err)
	}

	sur, err := st.Load(v1)
	if err != nil {
		t.Fatal(err)
	}
	sur.Net.Layers[0].B[0] += 5
	m3, err := st.Publish(sur, PublishMeta{})
	if err != nil || m3.Version != 3 {
		t.Fatalf("publish after reopen: %+v, %v", m3, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if s := re.Stats(); s != (Stats{Artifacts: 3, Workloads: 1, Corrupt: 0}) {
		t.Fatalf("reopened Stats = %+v", s)
	}
	if best, ok := re.ResolveMatching(algoFP, nil); !ok || best.ID != m3.ID {
		t.Fatalf("reopened Resolve = %+v ok=%v, want %s", best, ok, m3.ID)
	}
}
