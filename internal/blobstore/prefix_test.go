package blobstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/atlas"
	"mindmappings/internal/blobstore"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/modelstore"
	"mindmappings/internal/resilience"
	"mindmappings/internal/surrogate"

	_ "mindmappings/internal/workload" // register the built-in algorithms
)

// stores opens the atlas, the journal and the model store under root.
func stores(t *testing.T, root string) (*atlas.Atlas, *resilience.Journal, *modelstore.Store) {
	t.Helper()
	a, err := atlas.Open(filepath.Join(root, "atlas"))
	if err != nil {
		t.Fatal(err)
	}
	j, err := resilience.OpenJournal(filepath.Join(root, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := modelstore.Open(filepath.Join(root, "models"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		j.Close()
		ms.Close()
	})
	return a, j, ms
}

// model returns the tiny conv1d surrogate b02ce43dcce6aa35 of the
// checked-in model-store segment with one bias moved by i, so each i is a
// distinct artifact, and its serialization.
func model(t *testing.T, i int) (*surrogate.Surrogate, []byte) {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("..", "modelstore", "testdata", "segment"))); err != nil {
		t.Fatal(err)
	}
	ms, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	raw, err := ms.Blob("b02ce43dcce6aa35")
	if err != nil {
		t.Fatal(err)
	}
	sur, err := surrogate.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	sur.Net.Layers[0].B[0] += float64(i)
	var buf bytes.Buffer
	if err := sur.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return sur, buf.Bytes()
}

// solution is a conv1d entry for key index k with the given objective and
// a mapping drawn from seed.
func solution(t *testing.T, space *mapspace.Space, k int, best float64, seed int64) (atlas.Entry, mapspace.Mapping) {
	t.Helper()
	shape := []int{1000 + k, 5}
	key, family := atlas.Key("algofp", "archfp", "timeloop", "EDP", shape)
	return atlas.Entry{Key: key, Family: family, Algo: "conv1d", Shape: shape, BestEDP: best, Method: "MM"},
		space.Random(rand.New(rand.NewSource(seed)))
}

func conv1dSpace(t *testing.T) *mapspace.Space {
	t.Helper()
	p, err := loopnest.NewConv1DProblem("prefix", 1024, 5)
	if err != nil {
		t.Fatal(err)
	}
	space, err := mapspace.New(arch.Default(2), p)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// storeState is what the three stores hold: each atlas key's best entry,
// every atlas entry, each journal record and every model artifact.
type storeState struct {
	best    map[string]string
	entries map[string]bool
	jobs    map[string]string
	models  map[string]bool
}

func newState() storeState {
	return storeState{best: map[string]string{}, entries: map[string]bool{}, jobs: map[string]string{}, models: map[string]bool{}}
}

func (s storeState) clone() storeState {
	return storeState{maps.Clone(s.best), maps.Clone(s.entries), maps.Clone(s.jobs), maps.Clone(s.models)}
}

// read reports what reopened stores hold. Every artifact must load
// bit-identical to its published serialization.
func read(t *testing.T, a *atlas.Atlas, j *resilience.Journal, ms *modelstore.Store, published map[string][]byte) storeState {
	t.Helper()
	got := newState()
	for _, e := range a.List() {
		got.entries[e.ID] = true
		if best, ok := a.Best(e.Key); ok {
			got.best[e.Key] = best.ID
		}
		if _, _, ok, err := a.Lookup(e.Key); err != nil || !ok {
			t.Fatalf("Lookup(%s): ok=%v err=%v", e.Key, ok, err)
		}
	}
	ids, err := j.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		var v string
		if err := j.Get(id, &v); err != nil {
			t.Fatal(err)
		}
		got.jobs[id] = v
	}
	for _, m := range ms.List() {
		sur, err := ms.Load(m.ID)
		if err != nil {
			t.Fatalf("Load(%s): %v", m.ID, err)
		}
		var buf bytes.Buffer
		if err := sur.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), published[m.ID]) {
			t.Fatalf("artifact %s loads %d bytes that differ from the %d published", m.ID, buf.Len(), len(published[m.ID]))
		}
		got.models[m.ID] = true
	}
	return got
}

// matches reports whether got is want, allowing extra atlas entries and
// artifacts from the set superseded: a publish in flight may land its
// record and not yet the tombstones of the entries it supersedes, and a
// GC in flight some of its tombstones.
func matches(got, want storeState, superseded map[string]bool) bool {
	return maps.Equal(got.best, want.best) && maps.Equal(got.jobs, want.jobs) &&
		holds(got.entries, want.entries, superseded) && holds(got.models, want.models, superseded)
}

// holds reports whether got is want plus some of extra.
func holds(got, want, extra map[string]bool) bool {
	for id := range want {
		if !got[id] {
			return false
		}
	}
	for id := range got {
		if !want[id] && !extra[id] {
			return false
		}
	}
	return true
}

// TestCrashPrefixAtlasAndJournal records every file op of a run of atlas
// publishes and deletes interleaved with journal puts and deletes and with
// model-store publishes, deletes and a GC. For each prefix of that log,
// and for each prefix whose last write is torn at its middle or one byte
// short, it rebuilds the directory and reopens the three stores: the atlas
// must hold exactly the entries whose publish completed, with each key's
// best entry unchanged, each journal id its last completed put, or nothing
// after a delete, and the model store exactly the artifacts published and
// not deleted, each loading bit-identical to what was published. An
// operation in flight at the cut may show either way.
func TestCrashPrefixAtlasAndJournal(t *testing.T) {
	rec := blobstore.Record(t)
	a, j, ms := stores(t, rec.Root())
	space := conv1dSpace(t)
	published := map[string][]byte{}

	state := newState()
	states := []storeState{state.clone()}
	ends := []int{0}
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, state.clone())
		ends = append(ends, rec.Len())
	}
	publish := func(k int, best float64, seed int64) atlas.Entry {
		e, m := solution(t, space, k, best, seed)
		got, ok, err := a.Publish(e, &m)
		if ok {
			if old, had := state.best[e.Key]; had {
				delete(state.entries, old)
			}
			state.best[e.Key] = got.ID
			state.entries[got.ID] = true
		}
		step(err)
		return got
	}
	put := func(id, v string) {
		state.jobs[id] = v
		step(j.Put(id, v))
	}
	del := func(id string) {
		delete(state.jobs, id)
		step(j.Delete(id))
	}
	publishModel := func(i int) string {
		sur, raw := model(t, i)
		m, err := ms.Publish(sur, modelstore.PublishMeta{})
		state.models[m.ID] = true
		published[m.ID] = raw
		step(err)
		return m.ID
	}
	deleteModel := func(id string) {
		delete(state.models, id)
		step(ms.Delete(id))
	}

	publish(1, 5, 1)
	put("job-1", "submitted")
	v1 := publishModel(0)
	doomed := publish(2, 4, 2)
	put("job-1", "checkpoint")
	v2 := publishModel(1)
	put("job-2", "submitted")
	publish(1, 3, 3) // supersedes key 1's first entry
	publishModel(0)  // identical content: writes nothing
	publish(1, 6, 4) // worse: refused, writes nothing
	v3 := publishModel(2)
	del("job-1")
	delete(state.best, doomed.Key)
	delete(state.entries, doomed.ID)
	step(a.Delete(doomed.ID))
	deleteModel(v2)
	put("job-1", "resubmitted")
	publishModel(3)
	delete(state.models, v1) // GC keeps the newest version: two tombstones in one write
	delete(state.models, v3)
	removed, err := ms.GC(1)
	if want := []string{v1, v3}; !slices.Equal(slices.Sorted(slices.Values(removed)), slices.Sorted(slices.Values(want))) {
		t.Fatalf("GC removed %v, want %v", removed, want)
	}
	step(err)
	publish(3, 2, 5)
	del("job-2")
	del("job-3") // never journaled: writes nothing

	ops := rec.Ops()
	if len(ops) == 0 {
		t.Fatal("nothing recorded")
	}
	check := func(k int, ops []blobstore.Op, torn bool) {
		t.Helper()
		root := t.TempDir()
		if err := blobstore.Rebuild(root, ops); err != nil {
			t.Fatal(err)
		}
		ra, rj, rms := stores(t, root)
		got := read(t, ra, rj, rms, published)
		done, whole := 0, len(ops)
		if torn {
			whole--
		}
		for done+1 < len(ends) && ends[done+1] <= whole {
			done++
		}
		if matches(got, states[done], nil) {
			return
		}
		if inFlight := torn || whole > ends[done]; inFlight {
			superseded := map[string]bool{}
			for id := range states[done].entries {
				superseded[id] = !states[done+1].entries[id]
			}
			for id := range states[done].models {
				superseded[id] = !states[done+1].models[id]
			}
			if matches(got, states[done+1], superseded) {
				return
			}
		}
		t.Fatalf("prefix %d of %d (torn %v): stores hold %+v, want %+v", k, len(rec.Ops()), torn, got, states[done])
	}
	for k := 0; k <= len(ops); k++ {
		check(k, ops[:k], false)
		if k == 0 || ops[k-1].Kind != "write" {
			continue
		}
		for _, keep := range []int{len(ops[k-1].Data) / 2, len(ops[k-1].Data) - 1} {
			torn := slices.Clone(ops[:k])
			torn[k-1].Data = torn[k-1].Data[:keep]
			check(k, torn, true)
		}
	}
}

// TestSegmentSteadyStateCreatesNoFiles counts the files created by 200
// cycles of an atlas publish, a journal put/delete and a model-store
// publish/delete, each on a new key, job id and artifact, once the first
// cycle has created the three segments: there must be none.
func TestSegmentSteadyStateCreatesNoFiles(t *testing.T) {
	rec := blobstore.Record(t)
	a, j, ms := stores(t, rec.Root())
	space := conv1dSpace(t)
	cycle := func(i int) {
		e, m := solution(t, space, i, 1, 1)
		if _, ok, err := a.Publish(e, &m); err != nil || !ok {
			t.Fatalf("publish %d: ok=%v err=%v", i, ok, err)
		}
		id := fmt.Sprintf("job-%d", i)
		if err := j.Put(id, "running"); err != nil {
			t.Fatal(err)
		}
		if err := j.Delete(id); err != nil {
			t.Fatal(err)
		}
		sur, _ := model(t, i)
		art, err := ms.Publish(sur, modelstore.PublishMeta{})
		if err != nil || art.Version != 1 {
			t.Fatalf("model publish %d: version %d, err %v", i, art.Version, err)
		}
		if err := ms.Delete(art.ID); err != nil {
			t.Fatal(err)
		}
	}
	cycle(0)
	if n := rec.Creates(); n != 3 {
		t.Fatalf("the first cycle created %d files, want the 3 segments", n)
	}
	for i := 1; i <= 200; i++ {
		cycle(i)
	}
	if n := rec.Creates() - 3; n != 0 {
		t.Fatalf("200 steady-state cycles created %d files, want 0", n)
	}
	if err := j.Get("job-1", new(string)); !errors.Is(err, resilience.ErrNotJournaled) {
		t.Fatalf("Get(job-1) = %v, want ErrNotJournaled", err)
	}
}

// TestOldLayoutLeftAlone lays the files of the per-file layouts the
// stores used before segments — manifests, mapping and surrogate blobs,
// journal records and the staging files of both — into each store's
// directory. The stores must open empty, count nothing corrupt, remove
// nothing on GC, and leave every file byte for byte as it was.
func TestOldLayoutLeftAlone(t *testing.T) {
	old := map[string]string{
		"6f68ea96d74577c4.json":      `{"id":"6f68ea96d74577c4","key":"046042e8c69caa8f","family":"9d46b549aa5b23aa","algo_fp":"a"}`,
		"6f68ea96d74577c4.mapping":   `{"Spatial":[4,5]}`,
		"6f68ea96d74577c4.surrogate": "surrogate blob",
		"job-1.json":                 `{"id":"job-1","best":"m1","n":2}`,
		"tmp-0123456789abcdef":       `{"trunc`,
		".tmp-job-3-1234567":         `{"id":"jo`,
	}
	root := t.TempDir()
	dirs := []string{"atlas", "jobs", "models"}
	for _, dir := range dirs {
		if err := os.Mkdir(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, body := range old {
			if err := os.WriteFile(filepath.Join(root, dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, j, ms := stores(t, root)
	ids, err := j.List()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(a.List()) + len(ids) + len(ms.List()); n != 0 {
		t.Fatalf("the stores list %d entries from the old layout, want none", n)
	}
	if a.Stats().Corrupt != 0 || ms.Stats().Corrupt != 0 {
		t.Fatalf("corrupt counts %d (atlas) and %d (models), want 0", a.Stats().Corrupt, ms.Stats().Corrupt)
	}
	removed, err := a.GC(func(atlas.Entry) bool { return true })
	if err != nil || len(removed) != 0 {
		t.Fatalf("atlas GC removed %v (%v), want nothing", removed, err)
	}
	if removed, err = ms.GC(1); err != nil || len(removed) != 0 {
		t.Fatalf("model store GC removed %v (%v), want nothing", removed, err)
	}
	for _, dir := range dirs {
		got := map[string]string{}
		des, err := os.ReadDir(filepath.Join(root, dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range des {
			body, err := os.ReadFile(filepath.Join(root, dir, de.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got[de.Name()] = string(body)
		}
		if !maps.Equal(got, old) {
			t.Fatalf("%s holds %v after open and GC, want %v", dir, got, old)
		}
	}
}
