package modelstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
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

// TestCrashSafetyPartialWritesInvisible simulates the two crash windows —
// after the blob write but before the manifest commit, and mid-temp-file —
// and checks neither leaves a visible artifact; GC then reaps the debris.
func TestCrashSafetyPartialWritesInvisible(t *testing.T) {
	a, _ := testSurrogates(t)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.Publish(a, PublishMeta{})
	if err != nil {
		t.Fatal(err)
	}

	// Crash window 1: committed blob, no manifest.
	var blob bytes.Buffer
	if err := a.Save(&blob); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "deadbeefdeadbeef"+BlobExt)
	if err := os.WriteFile(orphan, blob.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash window 2: half-written temp file.
	if err := os.WriteFile(filepath.Join(dir, blobstore.TmpPrefix+"0123"), blob.Bytes()[:100], 0o644); err != nil {
		t.Fatal(err)
	}
	// Torn manifest (no blob behind it).
	if err := os.WriteFile(filepath.Join(dir, "cafecafecafecafe"+blobstore.ManifestExt), []byte(`{"id":"cafecafecafecafe"`), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st2.List()); got != 1 {
		t.Fatalf("partial artifacts leaked into the listing: %d entries", got)
	}
	if _, ok := st2.Get("deadbeefdeadbeef"); ok {
		t.Fatal("blob without manifest is visible")
	}
	if st2.Stats().Corrupt == 0 {
		t.Fatal("corrupt debris not counted")
	}
	removed, err := st2.GC(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 3 {
		t.Fatalf("GC removed %v, want the 3 debris files", removed)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if strings.HasPrefix(de.Name(), blobstore.TmpPrefix) {
			t.Fatalf("tmp file survived GC: %s", de.Name())
		}
	}
	if _, ok := st2.Get(m.ID); !ok {
		t.Fatal("GC removed a committed artifact")
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
