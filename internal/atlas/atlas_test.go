package atlas

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/blobstore"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"

	_ "mindmappings/internal/workload" // register the built-in algorithms
)

// testSolution builds a conv1d mapping for the given problem width plus an
// Entry manifest binding it to a deterministic identity.
func testSolution(t testing.TB, width int, best float64, seed int64) (Entry, mapspace.Mapping) {
	t.Helper()
	p, err := loopnest.NewConv1DProblem("atlas-test", width, 5)
	if err != nil {
		t.Fatal(err)
	}
	space, err := mapspace.New(arch.Default(2), p)
	if err != nil {
		t.Fatal(err)
	}
	m := space.Random(rand.New(rand.NewSource(seed)))
	key, family := Key("algofp", "archfp", "timeloop", "EDP", p.Shape)
	return Entry{
		Key:       key,
		Family:    family,
		Algo:      "conv1d",
		AlgoFP:    "algofp",
		ArchFP:    "archfp",
		CostModel: "timeloop",
		Objective: "EDP",
		Shape:     append([]int(nil), p.Shape...),
		BestEDP:   best,
		Evals:     100,
		Method:    "MM",
		Source:    "build",
	}, m
}

func TestKeyFamilyDerivation(t *testing.T) {
	k1, f1 := Key("a", "b", "c", "d", []int{1024, 5})
	k2, f2 := Key("a", "b", "c", "d", []int{1024, 5})
	if k1 != k2 || f1 != f2 {
		t.Fatal("key derivation is not deterministic")
	}
	// A different shape changes the key but stays in the family.
	k3, f3 := Key("a", "b", "c", "d", []int{2048, 5})
	if k3 == k1 {
		t.Fatal("different shapes share a key")
	}
	if f3 != f1 {
		t.Fatal("same identity prefix landed in different families")
	}
	// Any identity field change moves families.
	if _, f := Key("a2", "b", "c", "d", []int{1024, 5}); f == f1 {
		t.Fatal("different workload fingerprints share a family")
	}
	// Length-prefixing: shifting a boundary between fields must not collide.
	ka, _ := Key("ab", "c", "x", "y", []int{1})
	kb, _ := Key("a", "bc", "x", "y", []int{1})
	if ka == kb {
		t.Fatal("field-boundary shift collided")
	}
}

func TestShapeDistance(t *testing.T) {
	if d := ShapeDistance([]int{1024, 5}, []int{1024, 5}); d != 0 {
		t.Fatalf("identical shapes at distance %v", d)
	}
	// log2 metric: doubling one dim is distance 1 regardless of scale.
	if d := ShapeDistance([]int{1024, 5}, []int{2048, 5}); d != 1 {
		t.Fatalf("one doubling = %v, want 1", d)
	}
	if d := ShapeDistance([]int{16, 5}, []int{32, 5}); d != 1 {
		t.Fatalf("one doubling at small scale = %v, want 1", d)
	}
	if d := ShapeDistance([]int{1024}, []int{1024, 5}); !math.IsInf(d, 1) {
		t.Fatalf("mismatched ranks at finite distance %v", d)
	}
}

func TestPublishLookupRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, m := testSolution(t, 1024, 5.0, 1)
	committed, ok, err := a.Publish(e, &m)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || committed.ID == "" || committed.Version != 1 {
		t.Fatalf("publish: %+v ok=%v", committed, ok)
	}
	got, gm, hit, err := a.Lookup(e.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || got.ID != committed.ID || got.BestEDP != 5.0 {
		t.Fatalf("lookup: %+v hit=%v", got, hit)
	}
	if gm.String() != m.String() {
		t.Fatalf("mapping did not round-trip:\n%s\nvs\n%s", gm.String(), m.String())
	}
	// The returned mapping is a private clone: mutating it must not poison
	// later lookups.
	gm.Spatial[0] = 999
	_, again, _, err := a.Lookup(e.Key)
	if err != nil {
		t.Fatal(err)
	}
	if again.Spatial[0] == 999 {
		t.Fatal("lookup returned a shared mapping")
	}
	if _, _, hit, _ := a.Lookup("no-such-key"); hit {
		t.Fatal("lookup hit a key never published")
	}
	if best, ok := a.Best(e.Key); !ok || best.ID != committed.ID {
		t.Fatalf("best: %+v ok=%v", best, ok)
	}
	if _, ok := a.Best("no-such-key"); ok {
		t.Fatal("best found a key never published")
	}

	// Both read paths decode from the segment, so what they return right
	// after Publish is what they return after a reopen, field for field,
	// and it re-projects to the same warm start.
	e2, m2 := testSolution(t, 2048, 4.0, 2)
	if _, _, err := a.Publish(e2, &m2); err != nil {
		t.Fatal(err)
	}
	target := conv1dShape(t, 4096)
	read := func(a *Atlas) (lookup, nearest mapspace.Mapping) {
		t.Helper()
		_, lookup, hit, err := a.Lookup(e.Key)
		if err != nil || !hit {
			t.Fatalf("lookup: hit=%v err=%v", hit, err)
		}
		ne, nearest, _, ok, err := a.Nearest(e.Family, target)
		if err != nil || !ok || ne.Key != e2.Key {
			t.Fatalf("nearest: %+v ok=%v err=%v", ne, ok, err)
		}
		return lookup, nearest
	}
	fresh, freshNear := read(a)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	reopened, reopenedNear := read(b)
	if !reflect.DeepEqual(fresh, reopened) || !reflect.DeepEqual(freshNear, reopenedNear) {
		t.Fatalf("reopen changed a mapping:\n%+v\n%+v\nvs\n%+v\n%+v", fresh, freshNear, reopened, reopenedNear)
	}
	p, err := loopnest.NewConv1DProblem("atlas-test", 4096, 5)
	if err != nil {
		t.Fatal(err)
	}
	space, err := mapspace.New(arch.Default(2), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]mapspace.Mapping{{fresh, reopened}, {freshNear, reopenedNear}} {
		x, y := space.Reproject(&pair[0]), space.Reproject(&pair[1])
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("re-projection differs after reopen:\n%s\nvs\n%s", x.String(), y.String())
		}
	}
}

func TestPublishOnlyIfBetter(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e, m := testSolution(t, 1024, 5.0, 1)
	first, _, err := a.Publish(e, &m)
	if err != nil {
		t.Fatal(err)
	}

	// A worse solution for the same key is refused; the stored entry wins.
	worse, wm := testSolution(t, 1024, 7.0, 2)
	got, ok, err := a.Publish(worse, &wm)
	if err != nil {
		t.Fatal(err)
	}
	if ok || got.ID != first.ID {
		t.Fatalf("worse publish committed: %+v ok=%v", got, ok)
	}

	// A better one supersedes it — and the superseded entry is tidied away.
	better, bm := testSolution(t, 1024, 3.0, 3)
	got, ok, err = a.Publish(better, &bm)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || got.Version != 2 {
		t.Fatalf("better publish: %+v ok=%v", got, ok)
	}
	if got2, _, _, _ := a.Lookup(e.Key); got2.BestEDP != 3.0 {
		t.Fatalf("lookup after supersede: %+v", got2)
	}
	if best, _ := a.Best(e.Key); best.ID != got.ID {
		t.Fatalf("best after supersede: %+v, want %s", best, got.ID)
	}
	if n := len(a.List()); n != 1 {
		t.Fatalf("%d entries after supersede, want 1", n)
	}
	st := a.Stats()
	if st.Entries != 1 || st.Keys != 1 || st.Families != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// Republishing the identical mapping is a no-op.
	if _, ok, err := a.Publish(better, &bm); err != nil || ok {
		t.Fatalf("identical republish committed (ok=%v err=%v)", ok, err)
	}
}

func TestPublishValidation(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e, m := testSolution(t, 1024, 5.0, 1)
	for _, tc := range []struct {
		name   string
		mutate func(*Entry, **mapspace.Mapping)
	}{
		{"no key", func(e *Entry, _ **mapspace.Mapping) { e.Key = "" }},
		{"nil mapping", func(_ *Entry, m **mapspace.Mapping) { *m = nil }},
		{"nan objective", func(e *Entry, _ **mapspace.Mapping) { e.BestEDP = math.NaN() }},
		{"inf objective", func(e *Entry, _ **mapspace.Mapping) { e.BestEDP = math.Inf(1) }},
		{"zero objective", func(e *Entry, _ **mapspace.Mapping) { e.BestEDP = 0 }},
	} {
		ec, mc := e, &m
		tc.mutate(&ec, &mc)
		if _, _, err := a.Publish(ec, mc); err == nil {
			t.Errorf("%s: publish accepted", tc.name)
		}
	}
	if n := len(a.List()); n != 0 {
		t.Fatalf("rejected publishes left %d entries", n)
	}
}

// conv1dShape returns the problem shape NewConv1DProblem derives for the
// given input width (the output dim is smaller than the input).
func conv1dShape(t testing.TB, width int) []int {
	t.Helper()
	p, err := loopnest.NewConv1DProblem("atlas-test", width, 5)
	if err != nil {
		t.Fatal(err)
	}
	return p.Shape
}

func TestNearestNeighbor(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var family string
	for i, width := range []int{256, 1024, 4096} {
		e, m := testSolution(t, width, 5.0, int64(i+1))
		family = e.Family
		if _, _, err := a.Publish(e, &m); err != nil {
			t.Fatal(err)
		}
	}
	// 2048 sits roughly one doubling from both 1024 and 4096, and much
	// closer to either than to 256; the metric must pick whichever of the
	// two is nearer and report its exact log2 distance.
	target := conv1dShape(t, 2048)
	e, _, dist, ok, err := a.Nearest(family, target)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("nearest missed a populated family")
	}
	if e.Shape[0] != conv1dShape(t, 1024)[0] && e.Shape[0] != conv1dShape(t, 4096)[0] {
		t.Fatalf("nearest picked %v", e.Shape)
	}
	if want := ShapeDistance(e.Shape, target); dist != want {
		t.Fatalf("nearest distance %v, want %v", dist, want)
	}
	// 512 is about one doubling from 256 and 1024, three from 4096.
	if e, _, _, ok, _ := a.Nearest(family, conv1dShape(t, 512)); !ok || e.Shape[0] == conv1dShape(t, 4096)[0] {
		t.Fatalf("nearest(512) = %v ok=%v", e.Shape, ok)
	}
	// Exact-shape entries are excluded: they are the Lookup path's job.
	e, _, _, ok, err = a.Nearest(family, conv1dShape(t, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if !ok || e.Shape[0] == conv1dShape(t, 1024)[0] {
		t.Fatalf("nearest(1024) returned the exact entry %v (ok=%v)", e.Shape, ok)
	}
	// Unknown family: clean miss.
	if _, _, _, ok, _ := a.Nearest("no-such-family", conv1dShape(t, 1024)); ok {
		t.Fatal("nearest hit an unknown family")
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1, m1 := testSolution(t, 1024, 5.0, 1)
	if _, _, err := a.Publish(e1, &m1); err != nil {
		t.Fatal(err)
	}
	e2, m2 := testSolution(t, 2048, 4.0, 2)
	c2, _, err := a.Publish(e2, &m2)
	if err != nil {
		t.Fatal(err)
	}

	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Entries != 2 || st.Keys != 2 || st.Families != 1 {
		t.Fatalf("reopened stats: %+v", st)
	}
	got, gm, hit, err := b.Lookup(e1.Key)
	if err != nil || !hit {
		t.Fatalf("reopened lookup: hit=%v err=%v", hit, err)
	}
	if got.BestEDP != 5.0 || gm.String() != m1.String() {
		t.Fatal("reopened lookup returned the wrong solution")
	}
	if got, _, _, ok, _ := b.Nearest(e1.Family, e1.Shape); !ok || got.ID != c2.ID {
		t.Fatalf("reopened nearest: ok=%v id=%v", ok, got.ID)
	}
}

// TestCrashSafetyPartialWritesInvisible cuts the segment inside a
// publish's one write, as a crash would. On reopen the torn record must
// be invisible, counted corrupt and cut off, the entry committed before it
// must still serve, and the key the torn publish was for must take a new
// one.
func TestCrashSafetyPartialWritesInvisible(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1, m1 := testSolution(t, 1024, 5.0, 1)
	committed, _, err := a.Publish(e1, &m1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SegmentFile)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	e2, m2 := testSolution(t, 512, 4.0, 2)
	if _, _, err := a.Publish(e2, &m2); err != nil {
		t.Fatal(err)
	}
	a.Close()
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, (before.Size()+after.Size())/2); err != nil {
		t.Fatal(err)
	}

	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if l := b.List(); len(l) != 1 || l[0].ID != committed.ID {
		t.Fatalf("List = %v, want only %s", entryIDs(l), committed.ID)
	}
	if st := b.Stats(); st.Corrupt != 1 {
		t.Fatalf("Stats = %+v, want the torn record counted corrupt", st)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != before.Size() {
		t.Fatalf("segment after reopen: %v, %v; want %d bytes", st, err, before.Size())
	}
	if _, ok := b.Best(e2.Key); ok {
		t.Fatal("the torn publish is visible")
	}
	if _, ok, err := b.Publish(e2, &m2); err != nil || !ok {
		t.Fatalf("republish after the torn one: ok=%v err=%v", ok, err)
	}
}

// TestMisnamedManifestIsCorrupt pins that a segment record whose manifest
// claims an ID other than the record's own — another entry's, or one
// outside the directory such as "../victim" — is corrupt: never indexed,
// counted, and out of reach of Delete and GC, while the entry whose ID it
// claims still serves its own mapping.
func TestMisnamedManifestIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, m := testSolution(t, 1024, 5.0, 1)
	committed, _, err := a.Publish(e, &m)
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	_, other := testSolution(t, 1024, 5.0, 2)
	blob, err := json.Marshal(&other)
	if err != nil {
		t.Fatal(err)
	}
	escape := committed
	escape.ID = "../victim"
	seg, _, err := blobstore.OpenSegment[struct{}](filepath.Join(dir, SegmentFile), 0o644, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id, claim := range map[string]Entry{"aaaaaaaaaaaaaaaa": committed, "escape": escape} {
		manifest, err := json.Marshal(claim)
		if err != nil {
			t.Fatal(err)
		}
		if err := seg.Put(id, blobstore.EncodeRecord(manifest, blob)); err != nil {
			t.Fatal(err)
		}
	}
	seg.Close()

	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if st := b.Stats(); st != (Stats{Entries: 1, Keys: 1, Families: 1, Corrupt: 2}) {
		t.Fatalf("Stats = %+v", st)
	}
	for _, id := range []string{"aaaaaaaaaaaaaaaa", "escape", "../victim"} {
		if err := b.Delete(id); !errors.Is(err, ErrUnknownEntry) {
			t.Fatalf("Delete(%s) = %v, want ErrUnknownEntry", id, err)
		}
	}
	if removed, err := b.GC(nil); err != nil || len(removed) != 0 {
		t.Fatalf("GC removed %v (%v), want nothing", removed, err)
	}
	if got, gm, hit, err := b.Lookup(committed.Key); err != nil || !hit || got.ID != committed.ID || gm.String() != m.String() {
		t.Fatalf("Lookup = %s hit=%v err=%v, want %s with its own mapping", got.ID, hit, err, committed.ID)
	}
}

// TestPublishFailpointAborts pins the fault-injection contract used by the
// serve chaos tests: a failing "atlas.publish" failpoint aborts the write
// before any file is touched.
func TestPublishFailpointAborts(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected")
	a.SetFailpoint(func(op string) error {
		if op == "atlas.publish" {
			return boom
		}
		return nil
	})
	e, m := testSolution(t, 1024, 5.0, 1)
	if _, _, err := a.Publish(e, &m); !errors.Is(err, boom) {
		t.Fatalf("publish error = %v, want the injected fault", err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("aborted publish left files: %v", files)
	}
	a.SetFailpoint(nil)
	if _, ok, err := a.Publish(e, &m); err != nil || !ok {
		t.Fatalf("publish after clearing failpoint: ok=%v err=%v", ok, err)
	}
}

func TestDeleteAndGCStale(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e1, m1 := testSolution(t, 1024, 5.0, 1)
	c1, _, err := a.Publish(e1, &m1)
	if err != nil {
		t.Fatal(err)
	}
	e2, m2 := testSolution(t, 2048, 4.0, 2)
	c2, _, err := a.Publish(e2, &m2)
	if err != nil {
		t.Fatal(err)
	}

	if err := a.Delete("0000000000000000"); !errors.Is(err, ErrUnknownEntry) {
		t.Fatalf("deleting unknown ID: %v", err)
	}
	if err := a.Delete(c1.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, hit, _ := a.Lookup(e1.Key); hit {
		t.Fatal("deleted entry still answers lookups")
	}
	// Its family slot is gone too: nearest from e1's shape must now find e2.
	if e, _, _, ok, _ := a.Nearest(e1.Family, []int{1024, 5}); !ok || e.ID != c2.ID {
		t.Fatalf("nearest after delete: %+v ok=%v", e, ok)
	}

	// The stale predicate condemns entries whose recorded identity drifted.
	removed, err := a.GC(func(e Entry) bool { return e.ID == c2.ID })
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != c2.ID {
		t.Fatalf("stale GC removed %v, want [%s]", removed, c2.ID)
	}
	if st := a.Stats(); st.Entries != 0 || st.Keys != 0 || st.Families != 0 {
		t.Fatalf("stats after full GC: %+v", st)
	}
}

// TestPublishRefusesForeignFamilyOrShape pins that a better publish under a
// key whose stored entry has another family or shape is refused: a
// supersede rewrites its key's slot in place, which would file it under
// the stored family and shape.
func TestPublishRefusesForeignFamilyOrShape(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	e, m := testSolution(t, 1024, 5.0, 1)
	stored, _, err := a.Publish(e, &m)
	if err != nil {
		t.Fatal(err)
	}
	better, bm := testSolution(t, 1024, 3.0, 2)
	for name, mutate := range map[string]func(*Entry){
		"family": func(e *Entry) { e.Family = "0000000000000000" },
		"shape":  func(e *Entry) { e.Shape = []int{1024, 3} },
		"rank":   func(e *Entry) { e.Shape = []int{1024, 5, 1} },
	} {
		foreign := better
		foreign.Shape = slices.Clone(better.Shape)
		mutate(&foreign)
		if got, ok, err := a.Publish(foreign, &bm); err == nil || ok {
			t.Fatalf("%s: publish = %+v, %v, %v; want an error", name, got, ok, err)
		}
	}
	if got, ok := a.Best(e.Key); !ok || !reflect.DeepEqual(got, stored) {
		t.Fatalf("Best = %+v, %v after refused publishes, want %+v", got, ok, stored)
	}
	if got, ok, err := a.Publish(better, &bm); err != nil || !ok || got.Version != 2 {
		t.Fatalf("matching publish = %+v, %v, %v", got, ok, err)
	}
}
