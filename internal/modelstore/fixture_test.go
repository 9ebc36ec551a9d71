package modelstore

import (
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
