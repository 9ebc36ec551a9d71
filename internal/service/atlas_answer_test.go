package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mindmappings/internal/atlas"
	"mindmappings/internal/blobstore"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
)

// storedAnswer renders the atlas's best entry for req the way a hit must
// serve it: the stored mapping's String and its loop nest in req's map
// space.
func storedAnswer(t *testing.T, a *atlas.Atlas, req SearchRequest) (e atlas.Entry, mapping, loopNest string) {
	t.Helper()
	p, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	e, m, ok, err := a.Lookup(p.key)
	if err != nil || !ok {
		t.Fatalf("lookup %s: ok=%v err=%v", p.key, ok, err)
	}
	return e, m.String(), spaceFor(t, req).RenderLoopNest(&m)
}

// publishFor commits m for req's atlas key with the given objective value,
// as a write-back would.
func publishFor(t *testing.T, a *atlas.Atlas, req SearchRequest, m *mapspace.Mapping, bestEDP float64) atlas.Entry {
	t.Helper()
	p, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	e, published, err := a.Publish(atlas.Entry{
		Key: p.key, Family: p.family, Algo: p.algo.Name, AlgoFP: p.algoFP, ArchFP: p.archFP,
		CostModel: p.costModel, Objective: p.obj.String(), Shape: p.prob.Shape,
		BestEDP: bestEDP, Evals: 1, Method: "test",
	}, m)
	if err != nil || !published {
		t.Fatalf("publish: published=%v err=%v", published, err)
	}
	return e
}

// spaceFor builds req's map space.
func spaceFor(t *testing.T, req SearchRequest) *mapspace.Space {
	t.Helper()
	p, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	space, err := mapspace.New(p.arch, p.prob)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

func submitHit(t *testing.T, jobs *JobManager, req SearchRequest) Job {
	t.Helper()
	job, err := jobs.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != JobDone || job.Result == nil || job.Result.Source != "atlas" {
		t.Fatalf("not an atlas hit: %+v", job)
	}
	return job
}

// flightKinds counts the manager's flight-recorder events of one kind.
func flightKinds(jm *JobManager, kind string) int {
	n := 0
	for _, ev := range jm.flight.Snapshot().Events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestAtlasHitServesPreparedAnswer pins the prepared answer: every hit
// serves text byte-identical to rendering the stored mapping afresh, and a
// better publish for the same key is served from the next request on.
func TestAtlasHitServesPreparedAnswer(t *testing.T) {
	jobs, a := atlasManager(t, false)
	req := validRequest()
	req.Searcher = "ga"
	req.Evals = 300
	runToDone(t, jobs, req)

	e, mapping, loopNest := storedAnswer(t, a, req)
	for i := 0; i < 3; i++ {
		hit := submitHit(t, jobs, req)
		if hit.Result.Mapping != mapping || hit.Result.LoopNest != loopNest {
			t.Fatalf("hit %d differs from the stored mapping rendered afresh:\n%s\n%s\nvs\n%s\n%s",
				i, hit.Result.Mapping, hit.Result.LoopNest, mapping, loopNest)
		}
		if hit.Result.BestEDP != e.BestEDP || hit.Result.Method != e.Method {
			t.Fatalf("hit %d: edp %v method %q, entry %v %q", i, hit.Result.BestEDP, hit.Result.Method, e.BestEDP, e.Method)
		}
	}

	// A better solution for the same key replaces the prepared answer.
	better := spaceFor(t, req).Minimal()
	if better.String() == mapping {
		t.Fatal("the replacement mapping equals the stored one")
	}
	e2 := publishFor(t, a, req, &better, e.BestEDP/2)
	_, mapping2, loopNest2 := storedAnswer(t, a, req)
	hit := submitHit(t, jobs, req)
	if hit.Result.Mapping != mapping2 || hit.Result.LoopNest != loopNest2 || mapping2 != better.String() {
		t.Fatalf("after a better publish the hit serves:\n%s\nwant\n%s", hit.Result.Mapping, better.String())
	}
	if hit.Result.BestEDP != e2.BestEDP || hit.Result.Method != "test" {
		t.Fatalf("after a better publish: edp %v method %q", hit.Result.BestEDP, hit.Result.Method)
	}
	if snap, ok := jobs.Trace(hit.ID); !ok || snap.Attrs["atlas_entry"] != e2.ID {
		t.Fatalf("hit trace names entry %v, want %s", snap.Attrs["atlas_entry"], e2.ID)
	}
}

// TestAtlasHitHeaderPerProblemName pins that the prepared answer follows
// the problem name: a Table-1 name request and a shape request share one
// atlas key but each gets its own loop-nest header line.
func TestAtlasHitHeaderPerProblemName(t *testing.T) {
	jobs, a := atlasManager(t, false)
	prob, err := loopnest.Table1Problem("ResNet_Conv_4", "cnn-layer")
	if err != nil {
		t.Fatal(err)
	}
	named := SearchRequest{Algo: "cnn-layer", Problem: prob.Name, Searcher: "ga", Evals: 200, Seed: 1}
	shaped := SearchRequest{Algo: "cnn-layer", Shape: prob.Shape, Searcher: "ga", Evals: 200, Seed: 1}
	runToDone(t, jobs, named)

	for round := 0; round < 2; round++ {
		for _, req := range []SearchRequest{named, shaped} {
			_, mapping, loopNest := storedAnswer(t, a, req)
			name := req.Problem
			if name == "" {
				name = "custom"
			}
			hit := submitHit(t, jobs, req)
			if hit.Result.Mapping != mapping || hit.Result.LoopNest != loopNest {
				t.Fatalf("round %d, %s: hit differs from the stored mapping rendered afresh", round, name)
			}
			if header := "// problem " + name + "("; !strings.HasPrefix(hit.Result.LoopNest, header) {
				t.Fatalf("round %d: loop nest starts %q, want %q", round, strings.SplitN(hit.Result.LoopNest, "\n", 2)[0], header)
			}
		}
	}
}

// TestAtlasStaleEntryFallsThrough pins the non-member path: an entry whose
// mapping is not in the problem's map space never answers — every request
// runs a search — and the flight recorder says why, once.
func TestAtlasStaleEntryFallsThrough(t *testing.T) {
	jobs, a := atlasManager(t, false)
	req := validRequest()
	req.Searcher = "ga"
	req.Evals = 100
	stale := spaceFor(t, req).Minimal()
	stale.Tile[0][0] *= 2 // the factors no longer multiply to the shape
	if spaceFor(t, req).IsMember(&stale) == nil {
		t.Fatal("the broken mapping is still a member")
	}
	// So small an objective that no write-back can replace it.
	publishFor(t, a, req, &stale, 1e-300)

	for i := 0; i < 3; i++ {
		job, err := jobs.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if job.Result != nil && job.Result.Source == "atlas" {
			t.Fatalf("request %d was served the stale entry", i)
		}
		done, err := jobs.Wait(context.Background(), job.ID)
		if err != nil || done.Status != JobDone {
			t.Fatalf("request %d: search job %s (%v)", i, done.Status, err)
		}
	}
	if st := atlasCountsOf(jobs); st.Hits != 0 || st.Cold != 3 || st.Writebacks != 0 {
		t.Fatalf("counts %+v, want 0 hits, 3 cold searches and no write-back", st)
	}
	if n := flightKinds(jobs, "atlas.stale-entry"); n != 1 {
		t.Fatalf("%d atlas.stale-entry events, want 1", n)
	}
}

// putGarbageBlob writes into the atlas segment in dir a record that binds
// e's manifest to a mapping blob that does not decode.
func putGarbageBlob(t *testing.T, dir string, e atlas.Entry) {
	t.Helper()
	manifest, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	seg, _, err := blobstore.OpenSegment[struct{}](filepath.Join(dir, atlas.SegmentFile), 0o644, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if err := seg.Put(e.ID, blobstore.EncodeRecord(manifest, []byte("{not json"))); err != nil {
		t.Fatal(err)
	}
}

// TestAtlasUnreadableEntryFallsThrough pins the unreadable-entry paths.
// An entry whose mapping blob is garbage answers no request — each runs a
// search — and the flight recorder reports the lookup error once, without
// re-reading the blob per request. A segment record that fails its CRC is
// dropped at Open and counted corrupt, so its key is simply cold.
func TestAtlasUnreadableEntryFallsThrough(t *testing.T) {
	req := validRequest()
	req.Searcher = "ga"
	req.Evals = 100
	m := spaceFor(t, req).Minimal()
	// published returns the entry a publish of m for req commits.
	published := func(t *testing.T, dir string) atlas.Entry {
		a, err := atlas.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		return publishFor(t, a, req, &m, 1)
	}
	for _, tc := range []struct {
		name string
		// damage leaves dir holding an entry for req that cannot answer.
		damage       func(t *testing.T, dir string)
		lookupErrors int
		corrupt      int
	}{
		{"garbage blob", func(t *testing.T, dir string) {
			putGarbageBlob(t, dir, published(t, t.TempDir()))
		}, 1, 0},
		{"crc-bad record", func(t *testing.T, dir string) {
			published(t, dir)
			seg := filepath.Join(dir, atlas.SegmentFile)
			raw, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-2] ^= 0xff
			if err := os.WriteFile(seg, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.damage(t, dir)
			// A fresh open has not decoded the blob yet, so the first hit reads it.
			a, err := atlas.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { a.Close() })
			if st := a.Stats(); st.Corrupt != tc.corrupt {
				t.Fatalf("Stats = %+v, want %d corrupt", st, tc.corrupt)
			}
			jobs := NewJobManager(NewModelRegistry(t.TempDir(), 2), nil, 2, 8)
			t.Cleanup(func() { jobs.Shutdown(context.Background()) })
			jobs.EnableAtlas(a, true)

			for i := 0; i < 3; i++ {
				job, err := jobs.Submit(req)
				if err != nil {
					t.Fatal(err)
				}
				if job.Result != nil && job.Result.Source == "atlas" {
					t.Fatalf("request %d was served from an unreadable entry", i)
				}
				done, err := jobs.Wait(context.Background(), job.ID)
				if err != nil || done.Status != JobDone {
					t.Fatalf("request %d: search job %s (%v)", i, done.Status, err)
				}
			}
			if n := flightKinds(jobs, "atlas.lookup-error"); n != tc.lookupErrors {
				t.Fatalf("%d atlas.lookup-error events, want %d", n, tc.lookupErrors)
			}
			if st := atlasCountsOf(jobs); st.Hits != 0 {
				t.Fatalf("counts %+v, want no hits", st)
			}
		})
	}
}

// TestAtlasUnreadableNeighborStartsCold pins the warm-start read path
// against an atlas record whose manifest decodes but whose mapping blob
// does not: the mm job records atlas.lookup-error on the flight recorder,
// as an unreadable exact hit does, and runs cold to done.
func TestAtlasUnreadableNeighborStartsCold(t *testing.T) {
	req := mmRequest(1)
	neighbor := req
	neighbor.Shape = []int{512, 5}
	src, err := atlas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := spaceFor(t, neighbor).Minimal()
	e := publishFor(t, src, neighbor, &m, 1)
	src.Close()
	dir := t.TempDir()
	putGarbageBlob(t, dir, e)
	a, err := atlas.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	if st := a.Stats(); st.Entries != 1 || st.Corrupt != 0 {
		t.Fatalf("Stats = %+v, want the one entry indexed", st)
	}
	jobs := NewJobManager(NewModelRegistry(modelDir(t, "conv1d.surrogate"), 2), nil, 1, 4)
	t.Cleanup(func() { jobs.Shutdown(context.Background()) })
	jobs.EnableAtlas(a, true)

	if done := runToDone(t, jobs, req); done.Result == nil || done.Result.Source != "" {
		t.Fatalf("result %+v, want a cold search", done.Result)
	}
	if n := flightKinds(jobs, "atlas.lookup-error"); n != 1 {
		t.Fatalf("%d atlas.lookup-error events, want 1", n)
	}
	if st := atlasCountsOf(jobs); st.Cold != 1 || st.Neighbors != 0 {
		t.Fatalf("counts %+v, want one cold job", st)
	}
}

// TestAtlasConcurrentHits runs hits for one key from many goroutines,
// alternating the problem name so the prepared answer is replaced while
// others read it; run it under -race.
func TestAtlasConcurrentHits(t *testing.T) {
	jobs, a := atlasManager(t, false)
	prob, err := loopnest.Table1Problem("ResNet_Conv_4", "cnn-layer")
	if err != nil {
		t.Fatal(err)
	}
	named := SearchRequest{Algo: "cnn-layer", Problem: prob.Name, Searcher: "ga", Evals: 200, Seed: 1}
	shaped := SearchRequest{Algo: "cnn-layer", Shape: prob.Shape, Searcher: "ga", Evals: 200, Seed: 1}
	runToDone(t, jobs, named)
	want := map[bool]string{}
	for _, req := range []SearchRequest{named, shaped} {
		_, _, want[req.Problem == ""] = storedAnswer(t, a, req)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				req := named
				if (g+i)%2 == 1 {
					req = shaped
				}
				job, err := jobs.Submit(req)
				switch {
				case err != nil:
					errs <- err
					return
				case job.Result == nil || job.Result.Source != "atlas":
					errs <- fmt.Errorf("goroutine %d request %d was not a hit: %+v", g, i, job)
					return
				case job.Result.LoopNest != want[req.Problem == ""]:
					errs <- fmt.Errorf("goroutine %d request %d got another problem's loop nest", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := atlasCountsOf(jobs); st.Hits != 8*40 {
		t.Fatalf("hits = %d, want %d", st.Hits, 8*40)
	}
}

// raceEnabled is set by race_test.go: allocation counts differ under the
// race detector, so allocation pins skip there.
var raceEnabled bool

// TestAtlasExactHitAllocs pins the exact-hit budget: with the answer
// prepared and the fingerprints cached, a hit allocates little beyond the
// synthesized job, its stream and trace, and its snapshot.
func TestAtlasExactHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	jobs, _ := atlasManager(t, false)
	req := validRequest()
	req.Searcher = "ga"
	req.Evals = 300
	runToDone(t, jobs, req)
	allocs := testing.AllocsPerRun(200, func() { submitHit(t, jobs, req) })
	if allocs > 60 {
		t.Fatalf("an exact hit costs %.0f allocs, want <= 60", allocs)
	}
}
