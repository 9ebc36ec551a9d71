package atlas

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// openFixture copies the checked-in atlas under testdata/store into a
// scratch directory and opens it. The fixture holds three committed
// entries — key 046042e8… at versions 1 and 2 (a superseded version a
// crash left behind) and key 0fe06530… — plus crash debris: a torn tmp-
// file, an orphan blob, a blobless manifest, an unparseable manifest, and
// one file that is not the atlas's at all.
func openFixture(t *testing.T) (*Atlas, string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "store"))); err != nil {
		t.Fatal(err)
	}
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return a, dir
}

func entryIDs(es []Entry) []string {
	var ids []string
	for _, e := range es {
		ids = append(ids, e.ID)
	}
	return ids
}

// TestFixtureStoreReopens pins the on-disk format: the checked-in store
// must reopen, serve, and garbage-collect exactly as when it was written.
func TestFixtureStoreReopens(t *testing.T) {
	const (
		keyA, keyB = "046042e8c69caa8f", "0fe06530543c0655"
		family     = "9d46b549aa5b23aa"
		aV1, aV2   = "6f68ea96d74577c4", "4ed1ac794756251f"
		bV1        = "b0f5c85c454d9c79"
	)
	a, dir := openFixture(t)
	if got, want := entryIDs(a.List()), []string{aV1, aV2, bV1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	if st := a.Stats(); st != (Stats{Entries: 3, Keys: 2, Families: 1, Corrupt: 2}) {
		t.Fatalf("Stats = %+v", st)
	}
	e, m, hit, err := a.Lookup(keyA)
	if err != nil || !hit || e.ID != aV2 || e.BestEDP != 4 || e.Version != 2 {
		t.Fatalf("Lookup(A) = %+v hit=%v err=%v", e, hit, err)
	}
	if !reflect.DeepEqual(m.Spatial, []int{4, 5}) {
		t.Fatalf("Lookup(A) mapping spatial = %v", m.Spatial)
	}
	n, _, dist, ok, err := a.Nearest(family, []int{1020, 5})
	if err != nil || !ok || n.ID != bV1 || math.Abs(dist-math.Log2(2044.0/1020)) > 1e-12 {
		t.Fatalf("Nearest = %s dist=%v ok=%v err=%v", n.ID, dist, ok, err)
	}

	removed, err := a.GC(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{aV1, "cafecafecafecafe.json", "deadbeefdeadbeef.mapping", "feedfeedfeedfeed.json", "tmp-0123456789abcdef"}
	if !reflect.DeepEqual(removed, want) {
		t.Fatalf("GC removed %v, want %v", removed, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Fatalf("GC touched a foreign file: %v", err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Stats{a.Stats(), b.Stats()} {
		if st != (Stats{Entries: 2, Keys: 2, Families: 1, Corrupt: 0}) {
			t.Fatalf("Stats after GC = %+v", st)
		}
	}
	if got, want := entryIDs(b.List()), []string{aV2, bV1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened List = %v, want %v", got, want)
	}
}

// TestFixtureStoreMigrates pins the migration of the per-file layout: Open
// moves each committed entry into the segment and removes its files,
// leaving the debris for GC, and a reopen serves the same entries from
// the segment alone.
func TestFixtureStoreMigrates(t *testing.T) {
	a, dir := openFixture(t)
	want := entryIDs(a.List())
	if err := a.Close(); err != nil {
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
	debris := []string{SegmentFile, "cafecafecafecafe.json", "deadbeefdeadbeef.mapping", "feedfeedfeedfeed.json", "notes.txt", "tmp-0123456789abcdef"}
	if !reflect.DeepEqual(names, debris) {
		t.Fatalf("files after migration = %v, want %v", names, debris)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := entryIDs(b.List()); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened List = %v, want %v", got, want)
	}
	if _, m, hit, err := b.Lookup("046042e8c69caa8f"); err != nil || !hit || !reflect.DeepEqual(m.Spatial, []int{4, 5}) {
		t.Fatalf("migrated mapping = %v hit=%v err=%v", m.Spatial, hit, err)
	}
}

// TestSegmentFixtureReopens pins the segment format. The checked-in
// testdata/segment/atlas.log holds key 046042e8… at versions 1 and 2 (the
// second publish superseding the first), key 0fe06530…, a third entry a
// tombstone deleted, and the first half of a fourth publish that a crash
// tore. Reopening a copy must truncate the torn tail and count it
// corrupt, serve the two live entries, and take new publishes.
func TestSegmentFixtureReopens(t *testing.T) {
	const (
		keyA, keyB = "046042e8c69caa8f", "0fe06530543c0655"
		family     = "9d46b549aa5b23aa"
		aV2, bV1   = "b20c1f610d7603ad", "b0f5c85c454d9c79"
		goodSize   = 2196 // the offset just past the last whole record
	)
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "segment"))); err != nil {
		t.Fatal(err)
	}
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := entryIDs(a.List()), []string{aV2, bV1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	if st := a.Stats(); st != (Stats{Entries: 2, Keys: 2, Families: 1, Corrupt: 1}) {
		t.Fatalf("Stats = %+v", st)
	}
	if st, err := os.Stat(filepath.Join(dir, SegmentFile)); err != nil || st.Size() != goodSize {
		t.Fatalf("segment after reopen: %v, %v; want %d bytes", st, err, goodSize)
	}
	_, wantA := testSolution(t, 1024, 3.0, 4)
	e, m, hit, err := a.Lookup(keyA)
	if err != nil || !hit || e.ID != aV2 || e.Version != 2 || e.BestEDP != 3 || m.String() != wantA.String() {
		t.Fatalf("Lookup(A) = %+v hit=%v err=%v", e, hit, err)
	}
	if n, _, _, ok, err := a.Nearest(family, conv1dShape(t, 1024)); err != nil || !ok || n.ID != bV1 {
		t.Fatalf("Nearest = %s ok=%v err=%v", n.ID, ok, err)
	}
	eD, mD := testSolution(t, 512, 2.0, 5)
	d, ok, err := a.Publish(eD, &mD)
	if err != nil || !ok {
		t.Fatalf("publish after reopen: ok=%v err=%v", ok, err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if st := b.Stats(); st != (Stats{Entries: 3, Keys: 3, Families: 1, Corrupt: 0}) {
		t.Fatalf("reopened Stats = %+v", st)
	}
	if best, ok := b.Best(eD.Key); !ok || best.ID != d.ID {
		t.Fatalf("reopened Best = %+v ok=%v, want %s", best, ok, d.ID)
	}
}
