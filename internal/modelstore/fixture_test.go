package modelstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func manifestIDs(ms []Manifest) []string {
	var ids []string
	for _, m := range ms {
		ids = append(ids, m.ID)
	}
	return ids
}

// TestSegmentFixtureReopens pins the segment format. The checked-in
// testdata/segment/models.log holds two conv1d artifacts (hidden layer
// [4]), published as versions 1 and 2 (the second superseding the first
// for "auto"), a third that a tombstone deleted, and the first half of a
// fourth publish that a crash tore. Reopening a copy must truncate the
// torn tail and count it corrupt, serve both live artifacts with the
// blobs their IDs address, and take new publishes.
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
		if sum := sha256.Sum256(blob); hex.EncodeToString(sum[:])[:16] != id {
			t.Fatalf("Blob(%s) is not the blob its ID addresses", id)
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
