package modelstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/blobstore"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/surrogate"
)

// Training is the expensive part, so two tiny conv1d surrogates (different
// seeds => different content hashes) are built once and shared.
var (
	surOnce sync.Once
	surA    *surrogate.Surrogate
	surB    *surrogate.Surrogate
	surHist [][]float64 // per-surrogate train-loss histories
	surErr  error
)

func testSurrogates(t testing.TB) (*surrogate.Surrogate, *surrogate.Surrogate) {
	t.Helper()
	surOnce.Do(func() {
		for i, seed := range []int64{1, 2} {
			cfg := surrogate.TinyConfig()
			cfg.HiddenSizes = []int{16}
			cfg.Samples = 400
			cfg.Problems = 3
			cfg.Train.Epochs = 3
			cfg.Seed = seed
			ds, err := surrogate.Generate(loopnest.MustAlgorithm("conv1d"), arch.Default(2), cfg)
			if err != nil {
				surErr = err
				return
			}
			sur, hist, err := surrogate.Train(ds, cfg)
			if err != nil {
				surErr = err
				return
			}
			surHist = append(surHist, hist.TrainLoss)
			if i == 0 {
				surA = sur
			} else {
				surB = sur
			}
		}
	})
	if surErr != nil {
		t.Fatal(surErr)
	}
	return surA, surB
}

func TestPublishResolveVersioning(t *testing.T) {
	a, b := testSurrogates(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m1, err := st.Publish(a, PublishMeta{Name: "first", CostModel: "timeloop", Samples: 400, Seed: 1, TrainLoss: surHist[0]})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Version != 1 || m1.Algo != "conv1d" || m1.AlgoFP == "" || m1.ArchFP == "" {
		t.Fatalf("manifest: %+v", m1)
	}
	if m1.FinalTrain != surHist[0][len(surHist[0])-1] {
		t.Fatalf("final train loss %v, want %v", m1.FinalTrain, surHist[0][len(surHist[0])-1])
	}
	m2, err := st.Publish(b, PublishMeta{Name: "second", Samples: 400, Seed: 2, Parent: m1.ID})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version != 2 || m2.Parent != m1.ID {
		t.Fatalf("second manifest: %+v", m2)
	}
	if m1.ID == m2.ID {
		t.Fatal("distinct surrogates share a content address")
	}

	// Resolve picks the highest version for the workload fingerprint.
	best, ok := st.ResolveMatching(m1.AlgoFP, nil)
	if !ok || best.ID != m2.ID {
		t.Fatalf("resolve: %+v ok=%v, want %s", best, ok, m2.ID)
	}
	if _, ok := st.ResolveMatching("no-such-fp", nil); ok {
		t.Fatal("resolved a fingerprint never published")
	}

	// Republishing identical content is idempotent: same ID, no version 3.
	m1b, err := st.Publish(a, PublishMeta{Name: "dup"})
	if err != nil {
		t.Fatal(err)
	}
	if m1b.ID != m1.ID || m1b.Version != 1 || m1b.Name != "first" {
		t.Fatalf("idempotent republish: %+v", m1b)
	}
	if got := len(st.List()); got != 2 {
		t.Fatalf("%d artifacts listed, want 2", got)
	}

	// Loading round-trips the blob.
	loaded, err := st.Load(m1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.AlgoName != "conv1d" || loaded.AlgoFP != m1.AlgoFP {
		t.Fatalf("loaded: %s/%s", loaded.AlgoName, loaded.AlgoFP)
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	a, b := testSurrogates(t)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := st.Publish(a, PublishMeta{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := st.Publish(b, PublishMeta{})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st2.List()); got != 2 {
		t.Fatalf("reopened store lists %d artifacts, want 2", got)
	}
	best, ok := st2.ResolveMatching(m1.AlgoFP, nil)
	if !ok || best.ID != m2.ID || best.Version != 2 {
		t.Fatalf("reopened resolve: %+v ok=%v", best, ok)
	}
	// And a third publish continues the version sequence.
	if err := st2.Delete(m2.ID); err != nil {
		t.Fatal(err)
	}
	m3, err := st2.Publish(b, PublishMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if m3.Version != 2 {
		t.Fatalf("version after delete+republish = %d, want 2", m3.Version)
	}
}

// TestCrashSafetyPartialWritesInvisible cuts the segment inside a
// publish's one write, as a crash would. On reopen the torn artifact must
// be invisible, counted corrupt and cut off, the artifact committed before
// it must still load, and the surrogate must publish again.
func TestCrashSafetyPartialWritesInvisible(t *testing.T) {
	a, b := testSurrogates(t)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.Publish(a, PublishMeta{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SegmentFile)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	torn, err := st.Publish(b, PublishMeta{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, (before.Size()+after.Size())/2); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats(); got != (Stats{Artifacts: 1, Workloads: 1, Corrupt: 1}) {
		t.Fatalf("Stats = %+v, want the committed artifact and the torn one counted corrupt", got)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != before.Size() {
		t.Fatalf("segment after reopen: %v, %v; want %d bytes", fi, err, before.Size())
	}
	if _, ok := st2.Get(torn.ID); ok {
		t.Fatal("the torn publish is visible")
	}
	if _, err := st2.Load(m.ID); err != nil {
		t.Fatalf("Load of the committed artifact: %v", err)
	}
	if again, err := st2.Publish(b, PublishMeta{}); err != nil || again.ID != torn.ID || again.Version != 2 {
		t.Fatalf("republish after the torn one: %+v, %v", again, err)
	}
}

// TestMisnamedManifestIsCorrupt pins that a segment record whose manifest
// claims an ID other than the record's own — another artifact's, or one
// outside the directory such as "../victim" — is corrupt: never indexed,
// counted, and out of reach of Delete and GC, while the artifact whose ID
// it claims still loads its own blob.
func TestMisnamedManifestIsCorrupt(t *testing.T) {
	a, b := testSurrogates(t)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.Publish(a, PublishMeta{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	var blob bytes.Buffer
	if err := b.Save(&blob); err != nil {
		t.Fatal(err)
	}
	escape := m
	escape.ID = "../victim"
	seg, _, err := blobstore.OpenSegment[struct{}](filepath.Join(dir, SegmentFile), 0o644, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id, claim := range map[string]Manifest{"aaaaaaaaaaaaaaaa": m, "escape": escape} {
		manifest, err := json.Marshal(claim)
		if err != nil {
			t.Fatal(err)
		}
		if err := seg.Put(id, blobstore.EncodeRecord(manifest, blob.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	seg.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats(); got != (Stats{Artifacts: 1, Workloads: 1, Corrupt: 2}) {
		t.Fatalf("Stats = %+v", got)
	}
	for _, id := range []string{"aaaaaaaaaaaaaaaa", "escape", "../victim"} {
		if err := st2.Delete(id); !errors.Is(err, ErrUnknownArtifact) {
			t.Fatalf("Delete(%s) = %v, want ErrUnknownArtifact", id, err)
		}
	}
	if removed, err := st2.GC(1); err != nil || len(removed) != 0 {
		t.Fatalf("GC removed %v (%v), want nothing", removed, err)
	}
	got, err := st2.Blob(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := a.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("Blob(%s) is not its own surrogate", m.ID)
	}
}

func TestGCSupersededVersions(t *testing.T) {
	a, b := testSurrogates(t)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := st.Publish(a, PublishMeta{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := st.Publish(b, PublishMeta{})
	if err != nil {
		t.Fatal(err)
	}
	removed, err := st.GC(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != m1.ID {
		t.Fatalf("GC removed %v, want [%s]", removed, m1.ID)
	}
	if _, ok := st.Get(m1.ID); ok {
		t.Fatal("superseded version still visible")
	}
	best, ok := st.ResolveMatching(m2.AlgoFP, nil)
	if !ok || best.ID != m2.ID {
		t.Fatalf("resolve after GC: %+v ok=%v", best, ok)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := re.Get(m1.ID); ok {
		t.Fatal("superseded version came back on reopen")
	}
	if _, err := re.Load(m1.ID); !errors.Is(err, ErrUnknownArtifact) {
		t.Fatalf("Load of the superseded version after reopen: %v", err)
	}
}

func TestDeleteUnknownAndLoadUnknown(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("nope"); err == nil {
		t.Fatal("deleted an unknown artifact")
	}
	if _, err := st.Load("nope"); err == nil {
		t.Fatal("loaded an unknown artifact")
	}
}

func TestConcurrentPublishAndResolve(t *testing.T) {
	a, b := testSurrogates(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sur := a
			if i%2 == 1 {
				sur = b
			}
			if _, err := st.Publish(sur, PublishMeta{}); err != nil {
				t.Errorf("publish: %v", err)
			}
			st.ResolveMatching(sur.AlgoFP, nil)
			st.List()
		}(i)
	}
	wg.Wait()
	if got := len(st.List()); got != 2 {
		t.Fatalf("%d artifacts after concurrent idempotent publishes, want 2", got)
	}
}
