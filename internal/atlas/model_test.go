package atlas

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"mindmappings/internal/blobstore"
	"mindmappings/internal/mapspace"
)

// model is the brute-force reference the atlas is checked against: a
// plain slice of the committed entries in the order they were indexed,
// and every read a scan of it.
type model struct {
	entries []Entry
	// mappings holds each entry ID's mapping, rendered, as first read.
	mappings map[string]string
}

// best is the key's best entry: lowest BestEDP, then newest version, then
// first indexed.
func (r *model) best(key string) (Entry, bool) {
	var best Entry
	found := false
	for _, e := range r.entries {
		if e.Key != key {
			continue
		}
		if !found || e.BestEDP < best.BestEDP || (e.BestEDP == best.BestEDP && e.Version > best.Version) {
			best, found = e, true
		}
	}
	return best, found
}

func (r *model) isBest(e Entry) bool {
	b, _ := r.best(e.Key)
	return b.ID == e.ID
}

// nearest scans the family's best entries for the one at the least
// ShapeDistance from shape, excluding shape itself, ties broken by key.
func (r *model) nearest(family string, shape []int) (Entry, float64, bool) {
	var best Entry
	dist, found := math.Inf(1), false
	for _, e := range r.entries {
		if e.Family != family || !r.isBest(e) || slices.Equal(e.Shape, shape) {
			continue
		}
		d := ShapeDistance(e.Shape, shape)
		if d < dist || (found && d == dist && e.Key < best.Key) {
			best, dist, found = e, d, true
		}
	}
	return best, dist, found
}

// publish applies only-if-better publication and returns what Publish
// must return, with Created left for the caller to take from the atlas.
func (r *model) publish(e Entry, m *mapspace.Mapping) (Entry, bool) {
	blob, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(append([]byte(e.Key), blob...))
	e.ID = hex.EncodeToString(sum[:8])
	if cur, ok := r.best(e.Key); ok && cur.BestEDP <= e.BestEDP {
		return cur, false
	}
	for _, old := range r.entries {
		if old.ID == e.ID {
			return old, false
		}
	}
	e.Version = 1
	for _, old := range r.entries {
		if old.Key == e.Key && old.Version >= e.Version {
			e.Version = old.Version + 1
		}
	}
	r.entries = slices.DeleteFunc(r.entries, func(old Entry) bool { return old.Key == e.Key })
	return e, true
}

func (r *model) remove(ids ...string) {
	r.entries = slices.DeleteFunc(r.entries, func(e Entry) bool { return slices.Contains(ids, e.ID) })
}

// gcVictims lists, in ID order, what GC must remove: every version but
// each key's best, and the bests stale condemns.
func (r *model) gcVictims(stale func(Entry) bool) []string {
	var ids []string
	for _, e := range r.entries {
		if !r.isBest(e) || (stale != nil && stale(e)) {
			ids = append(ids, e.ID)
		}
	}
	slices.Sort(ids)
	return ids
}

func (r *model) stats() (entries, keys, families int) {
	ks, fs := map[string]bool{}, map[string]bool{}
	for _, e := range r.entries {
		ks[e.Key], fs[e.Family] = true, true
	}
	return len(r.entries), len(ks), len(fs)
}

// modelIdentity is one family the model test publishes into: its
// fingerprints and the shapes its keys are drawn from (of mixed ranks in
// the fixtures' family, so some neighbours lie at infinite distance).
type modelIdentity struct {
	algo, algoFP, archFP, costModel, objective string
	shapes                                     [][]int
}

var modelIdentities = []modelIdentity{
	// The fixtures' family: conv1d shapes, their keys among them.
	{"conv1d", "algofp", "archfp", "timeloop", "EDP", [][]int{
		{1020, 5}, {2044, 5}, {508, 5}, {4092, 5}, {1020, 3}, {1, 5}, {16, 4, 2}, {8, 8, 2}, {1020, 5, 1},
	}},
	{"conv1d", "algofp", "archfp", "timeloop", "energy", [][]int{
		{1020, 5}, {2044, 5}, {2044, 3}, {4, 1},
	}},
	{"cnn-layer", "cnnfp", "archfp2", "roofline", "EDP", [][]int{
		{1, 64, 64, 56, 56, 3, 3}, {1, 64, 128, 28, 28, 3, 3}, {1, 128, 64, 56, 56, 3, 3},
		{1, 256, 256, 14, 14, 3, 3}, {1, 64, 64, 56, 56, 1, 1}, {2, 64, 64, 56, 56, 3, 3},
	}},
}

// modelTargets are the shapes Nearest is asked about: every published
// shape, so exact matches are excluded, and some no entry holds.
func modelTargets(id modelIdentity) [][]int {
	return append(slices.Clone(id.shapes), []int{3000, 5}, []int{7, 7, 7}, []int{1, 96, 96, 20, 20, 3, 3})
}

// TestAtlasMatchesModel drives seeded random sequences of publishes (new
// keys, supersedes, refused and repeated solutions), deletes, GCs with
// and without a staleness predicate, and reopens, starting from an empty
// atlas and from both checked-in fixtures (the per-file one migrates),
// and after every step checks Best, Lookup, Nearest, List, Stats and
// GC's removed IDs against the brute-force model.
func TestAtlasMatchesModel(t *testing.T) {
	steps := 120
	if testing.Short() {
		steps = 40
	}
	for _, start := range []string{"empty", "store", "segment", "versions"} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", start, seed), func(t *testing.T) {
				runModel(t, start, seed, steps)
			})
		}
	}
}

func runModel(t *testing.T, start string, seed int64, steps int) {
	var mappings []mapspace.Mapping
	for s := int64(1); s <= 4; s++ {
		_, m := testSolution(t, 1024, 1, s)
		mappings = append(mappings, m)
	}
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	switch start {
	case "store", "segment":
		if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", start))); err != nil {
			t.Fatal(err)
		}
	case "versions":
		writeVersions(t, dir, rng, mappings)
	}
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { a.Close() }()
	ref := &model{mappings: map[string]string{}}
	// The fixtures' contents are pinned by their own tests; the model
	// starts from what they hold, in the order Open indexes them.
	ref.entries = a.List()
	if start == "versions" {
		slices.SortStableFunc(ref.entries, func(x, y Entry) int { return cmp.Compare(x.ID, y.ID) })
	} else {
		slices.SortStableFunc(ref.entries, func(x, y Entry) int { return cmp.Compare(x.Version, y.Version) })
	}
	check(t, a, ref, "start")
	for step := range steps {
		var op string
		switch x := rng.Intn(100); {
		case x < 65:
			id := modelIdentities[rng.Intn(len(modelIdentities))]
			shape := id.shapes[rng.Intn(len(id.shapes))]
			key, family := Key(id.algoFP, id.archFP, id.costModel, id.objective, shape)
			e := Entry{
				Key: key, Family: family, Algo: id.algo, AlgoFP: id.algoFP, ArchFP: id.archFP,
				CostModel: id.costModel, Objective: id.objective, Shape: slices.Clone(shape),
				BestEDP: float64(1 + rng.Intn(6)), Evals: 50 * (1 + rng.Intn(4)),
				Method: []string{"MM", "GA", "SA"}[rng.Intn(3)], Source: []string{"build", "serve"}[rng.Intn(2)],
			}
			m := &mappings[rng.Intn(len(mappings))]
			op = fmt.Sprintf("publish %s %v edp=%v", key, shape, e.BestEDP)
			want, wantOK := ref.publish(e, m)
			got, ok, err := a.Publish(e, m)
			if err != nil {
				t.Fatalf("step %d %s: %v", step, op, err)
			}
			if wantOK {
				want.Created = got.Created
				if got.Created.IsZero() {
					t.Fatalf("step %d %s: committed entry without a creation time", step, op)
				}
				ref.entries = append(ref.entries, want)
				ref.mappings[want.ID] = m.String()
			}
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d %s: Publish = %+v, %v; want %+v, %v", step, op, got, ok, want, wantOK)
			}
		case x < 75:
			id := "0000000000000000"
			if len(ref.entries) > 0 && rng.Intn(4) > 0 {
				id = ref.entries[rng.Intn(len(ref.entries))].ID
			}
			op = "delete " + id
			err := a.Delete(id)
			if slices.ContainsFunc(ref.entries, func(e Entry) bool { return e.ID == id }) {
				if err != nil {
					t.Fatalf("step %d %s: %v", step, op, err)
				}
				ref.remove(id)
			} else if !errors.Is(err, ErrUnknownEntry) {
				t.Fatalf("step %d %s: err = %v, want ErrUnknownEntry", step, op, err)
			}
		case x < 82:
			var stale func(Entry) bool
			if cut := rng.Intn(8); cut < 6 {
				stale = func(e Entry) bool { return e.BestEDP > float64(cut) && e.Source == "build" }
			}
			op = fmt.Sprintf("gc stale=%v", stale != nil)
			want := ref.gcVictims(stale)
			removed, err := a.GC(stale)
			if err != nil {
				t.Fatalf("step %d %s: %v", step, op, err)
			}
			// The per-file layout's debris follows the entry IDs.
			if len(removed) < len(want) || !slices.Equal(removed[:len(want)], want) {
				t.Fatalf("step %d %s: removed %v, want entries %v first", step, op, removed, want)
			}
			for _, name := range removed[len(want):] {
				if slices.ContainsFunc(ref.entries, func(e Entry) bool { return e.ID == name }) {
					t.Fatalf("step %d %s: removed %s, which is not a victim", step, op, name)
				}
			}
			ref.remove(want...)
		default:
			op = "reopen"
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if a, err = Open(dir); err != nil {
				t.Fatalf("step %d reopen: %v", step, err)
			}
		}
		check(t, a, ref, fmt.Sprintf("step %d %s", step, op))
	}
}

// writeVersions writes an atlas segment whose keys hold several versions
// at once, as puts whose tombstones a crash cut off leave them: versions
// 1 to 3 with objective values 2 or 3, so some keys' versions tie on the
// value and a few on the version too (the first indexed then wins). The
// IDs ascend in log order.
func writeVersions(t *testing.T, dir string, rng *rand.Rand, mappings []mapspace.Mapping) {
	t.Helper()
	seg, _, err := blobstore.OpenSegment[struct{}](filepath.Join(dir, SegmentFile), 0o644, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	id := modelIdentities[0]
	for i := range 24 {
		shape := id.shapes[rng.Intn(4)]
		key, family := Key(id.algoFP, id.archFP, id.costModel, id.objective, shape)
		e := Entry{
			ID: fmt.Sprintf("%016x", i), Key: key, Family: family, Algo: id.algo, AlgoFP: id.algoFP, ArchFP: id.archFP,
			CostModel: id.costModel, Objective: id.objective, Shape: shape,
			BestEDP: float64(2 + rng.Intn(2)), Evals: 100, Method: "MM", Source: "build",
			Version: 1 + rng.Intn(3), Created: time.Unix(1_700_000_000+int64(i), int64(i)).UTC(),
		}
		manifest, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(&mappings[rng.Intn(len(mappings))])
		if err != nil {
			t.Fatal(err)
		}
		if err := seg.Put(e.ID, blobstore.EncodeRecord(manifest, blob)); err != nil {
			t.Fatal(err)
		}
	}
}

// check compares every read of the atlas with the model's.
func check(t *testing.T, a *Atlas, ref *model, at string) {
	t.Helper()
	mappingOf := func(id string, m mapspace.Mapping) {
		t.Helper()
		if want, ok := ref.mappings[id]; !ok {
			ref.mappings[id] = m.String()
		} else if got := m.String(); got != want {
			t.Fatalf("%s: entry %s reads mapping\n%s\nwant\n%s", at, id, got, want)
		}
	}
	keys := map[string]bool{}
	for _, id := range modelIdentities {
		for _, shape := range id.shapes {
			key, _ := Key(id.algoFP, id.archFP, id.costModel, id.objective, shape)
			keys[key] = true
		}
	}
	for _, e := range ref.entries {
		keys[e.Key] = true
	}
	for key := range keys {
		want, wantOK := ref.best(key)
		got, ok := a.Best(key)
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Best(%s) = %+v, %v; want %+v, %v", at, key, got, ok, want, wantOK)
		}
		got, m, ok, err := a.Lookup(key)
		if err != nil || ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Lookup(%s) = %+v, %v, %v; want %+v, %v", at, key, got, ok, err, want, wantOK)
		}
		if ok {
			mappingOf(got.ID, m)
		}
	}
	for _, id := range modelIdentities {
		_, family := Key(id.algoFP, id.archFP, id.costModel, id.objective, nil)
		for _, target := range modelTargets(id) {
			want, wantDist, wantOK := ref.nearest(family, target)
			got, m, dist, ok, err := a.Nearest(family, target)
			if err != nil || ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Nearest(%v) = %+v, %v, %v; want %+v, %v", at, target, got, ok, err, want, wantOK)
			}
			if !ok {
				continue
			}
			if math.Float64bits(dist) != math.Float64bits(wantDist) || dist != ShapeDistance(got.Shape, target) {
				t.Fatalf("%s: Nearest(%v) distance %v, want %v", at, target, dist, wantDist)
			}
			mappingOf(got.ID, m)
		}
	}
	// List orders by workload, key and version; the order of two versions
	// that share a number is not specified.
	listOrder := func(x, y Entry) int {
		return cmp.Or(cmp.Compare(x.Algo, y.Algo), cmp.Compare(x.Key, y.Key), x.Version-y.Version)
	}
	byID := func(x, y Entry) int { return cmp.Or(listOrder(x, y), cmp.Compare(x.ID, y.ID)) }
	got, want := a.List(), slices.Clone(ref.entries)
	if !slices.IsSortedFunc(got, listOrder) {
		t.Fatalf("%s: List out of order: %v", at, entryIDs(got))
	}
	slices.SortFunc(got, byID)
	slices.SortFunc(want, byID)
	if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
		t.Fatalf("%s: List = %v, want %v", at, entryIDs(got), entryIDs(want))
	}
	entries, keyCount, families := ref.stats()
	if st := a.Stats(); st.Entries != entries || st.Keys != keyCount || st.Families != families {
		t.Fatalf("%s: Stats = %+v, want %d entries, %d keys, %d families", at, st, entries, keyCount, families)
	}
}

// TestBestAllocatesNothing pins that Best, which every atlas-repeat
// request calls, stays off the allocator.
func TestBestAllocatesNothing(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	e, m := testSolution(t, 1024, 5.0, 1)
	if _, _, err := a.Publish(e, &m); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := a.Best(e.Key); !ok {
			t.Fatal("best missed")
		}
	}); n != 0 {
		t.Fatalf("Best allocates %v times a call", n)
	}
}

// TestShapeSlabCompaction supersedes enough entries that the removed
// shapes fill half the slab, which is then copied afresh: every read
// after it must match the model, and a Shape read before it must not
// change.
func TestShapeSlabCompaction(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	_, m1 := testSolution(t, 1024, 1, 1)
	_, m2 := testSolution(t, 1024, 1, 2)
	ref := &model{mappings: map[string]string{}}
	publish := func(width int, edp float64, m *mapspace.Mapping) {
		t.Helper()
		shape := []int{width, 5}
		key, family := Key("algofp", "archfp", "timeloop", "EDP", shape)
		e := Entry{Key: key, Family: family, Algo: "conv1d", AlgoFP: "algofp", ArchFP: "archfp",
			CostModel: "timeloop", Objective: "EDP", Shape: shape, BestEDP: edp, Method: "GA"}
		want, _ := ref.publish(e, m)
		got, ok, err := a.Publish(e, m)
		if err != nil || !ok {
			t.Fatalf("publish %d: ok=%v err=%v", width, ok, err)
		}
		want.Created = got.Created
		ref.entries = append(ref.entries, want)
	}
	// n two-size shapes, then a supersede of each: the last one leaves
	// removed shapes holding half the slab, past the 1024 sizes a copy
	// waits for.
	const n = 700
	for w := 1; w <= n; w++ {
		publish(w, 5, &m1)
	}
	first, ok := a.Best(ref.entries[0].Key)
	if !ok {
		t.Fatal("best missed")
	}
	held := slices.Clone(first.Shape)
	for w := 1; w <= n; w++ {
		publish(w, 4, &m2)
	}
	if !slices.Equal(first.Shape, held) {
		t.Fatalf("a returned Shape changed from %v to %v", held, first.Shape)
	}
	if a.dead != 0 || len(a.shapes) != 2*n {
		t.Fatalf("slab of %d sizes, %d dead, after %d supersedes: not compacted", len(a.shapes), a.dead, n)
	}
	check(t, a, ref, "after compaction")
}
