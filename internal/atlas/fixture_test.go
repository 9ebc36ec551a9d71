package atlas

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func entryIDs(es []Entry) []string {
	var ids []string
	for _, e := range es {
		ids = append(ids, e.ID)
	}
	return ids
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
	if st := a.Stats(); st != (Stats{Entries: 2, Families: 1, Corrupt: 1}) {
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
	if st := b.Stats(); st != (Stats{Entries: 3, Families: 1, Corrupt: 0}) {
		t.Fatalf("reopened Stats = %+v", st)
	}
	if best, ok := b.Best(eD.Key); !ok || best.ID != d.ID {
		t.Fatalf("reopened Best = %+v ok=%v, want %s", best, ok, d.ID)
	}
}
