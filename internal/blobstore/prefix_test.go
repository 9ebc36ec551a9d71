package blobstore_test

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/atlas"
	"mindmappings/internal/blobstore"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/resilience"

	_ "mindmappings/internal/workload" // register the built-in algorithms
)

// stores opens the atlas and the journal under root.
func stores(t *testing.T, root string) (*atlas.Atlas, *resilience.Journal) {
	t.Helper()
	a, err := atlas.Open(filepath.Join(root, "atlas"))
	if err != nil {
		t.Fatal(err)
	}
	j, err := resilience.OpenJournal(filepath.Join(root, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		j.Close()
	})
	return a, j
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

// storeState is what the two stores hold: each atlas key's best entry,
// every atlas entry, and each journal record.
type storeState struct {
	best    map[string]string
	entries map[string]bool
	jobs    map[string]string
}

func (s storeState) clone() storeState {
	return storeState{maps.Clone(s.best), maps.Clone(s.entries), maps.Clone(s.jobs)}
}

// read reports what reopened stores hold.
func read(t *testing.T, a *atlas.Atlas, j *resilience.Journal) storeState {
	t.Helper()
	got := storeState{best: map[string]string{}, entries: map[string]bool{}, jobs: map[string]string{}}
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
	return got
}

// matches reports whether got is want, allowing extra atlas entries from
// the set superseded: a publish in flight may land its record and not
// yet the tombstones of the entries it supersedes.
func matches(got, want storeState, superseded map[string]bool) bool {
	if !maps.Equal(got.best, want.best) || !maps.Equal(got.jobs, want.jobs) {
		return false
	}
	for id := range want.entries {
		if !got.entries[id] {
			return false
		}
	}
	for id := range got.entries {
		if !want.entries[id] && !superseded[id] {
			return false
		}
	}
	return true
}

// TestCrashPrefixAtlasAndJournal records every file op of a run of atlas
// publishes and deletes interleaved with journal puts and deletes. For
// each prefix of that log, and for each prefix whose last write is torn
// at its middle or one byte short, it rebuilds the directory and reopens
// both stores: the atlas must hold exactly the entries whose publish
// completed, with each key's best entry unchanged, and each journal id
// its last completed put, or nothing after a delete. An operation in
// flight at the cut may show either way.
func TestCrashPrefixAtlasAndJournal(t *testing.T) {
	rec := blobstore.Record(t)
	a, j := stores(t, rec.Root())
	space := conv1dSpace(t)

	state := storeState{best: map[string]string{}, entries: map[string]bool{}, jobs: map[string]string{}}
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

	publish(1, 5, 1)
	put("job-1", "submitted")
	doomed := publish(2, 4, 2)
	put("job-1", "checkpoint")
	put("job-2", "submitted")
	publish(1, 3, 3) // supersedes key 1's first entry
	publish(1, 6, 4) // worse: refused, writes nothing
	del("job-1")
	delete(state.best, doomed.Key)
	delete(state.entries, doomed.ID)
	step(a.Delete(doomed.ID))
	put("job-1", "resubmitted")
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
		ra, rj := stores(t, root)
		got := read(t, ra, rj)
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
// publish + journal put/delete cycles, each on a new key and job id, once
// the first cycle has created the two segments: there must be none.
func TestSegmentSteadyStateCreatesNoFiles(t *testing.T) {
	rec := blobstore.Record(t)
	a, j := stores(t, rec.Root())
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
	}
	cycle(0)
	if n := rec.Creates(); n != 2 {
		t.Fatalf("the first cycle created %d files, want the 2 segments", n)
	}
	for i := 1; i <= 200; i++ {
		cycle(i)
	}
	if n := rec.Creates() - 2; n != 0 {
		t.Fatalf("200 steady-state cycles created %d files, want 0", n)
	}
	if err := j.Get("job-1", new(string)); !errors.Is(err, resilience.ErrNotJournaled) {
		t.Fatalf("Get(job-1) = %v, want ErrNotJournaled", err)
	}
}
