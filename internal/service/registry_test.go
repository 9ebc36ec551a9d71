package service

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mindmappings/internal/modelstore"
	"mindmappings/internal/surrogate"
)

func TestRegistryLoadsOnceAndShares(t *testing.T) {
	dir := modelDir(t, "conv1d.surrogate")
	r := NewModelRegistry(dir, 4)
	a, err := r.Get("conv1d.surrogate")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Get("conv1d.surrogate")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Get returned a different surrogate instance")
	}
	if loads, loaded := r.loads.Value(), r.resident(); loads != 1 || loaded != 1 {
		t.Fatalf("%d loads, %d loaded", loads, loaded)
	}
}

func TestRegistryConcurrentGetLoadsOnce(t *testing.T) {
	dir := modelDir(t, "m.surrogate")
	r := NewModelRegistry(dir, 4)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Get("m.surrogate"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if loads := r.loads.Value(); loads != 1 {
		t.Fatalf("concurrent Gets loaded %d times", loads)
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	dir := modelDir(t, "a.surrogate", "b.surrogate", "c.surrogate")
	r := NewModelRegistry(dir, 2)
	for _, name := range []string{"a.surrogate", "b.surrogate"} {
		if _, err := r.Get(name); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so b is LRU, then load c to force an eviction.
	if _, err := r.Get("a.surrogate"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("c.surrogate"); err != nil {
		t.Fatal(err)
	}
	if loaded, evicted := r.resident(), r.evicted.Value(); loaded != 2 || evicted != 1 {
		t.Fatalf("%d loaded, %d evicted", loaded, evicted)
	}
	// b was evicted; fetching it again is a fresh disk load.
	if _, err := r.Get("b.surrogate"); err != nil {
		t.Fatal(err)
	}
	if loads := r.loads.Value(); loads != 4 {
		t.Fatalf("loads %d, want 4 (a, b, c, b-again)", loads)
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	r := NewModelRegistry(t.TempDir(), 2)
	for _, name := range []string{"", "../etc/passwd", "a/b", `a\b`, ".hidden"} {
		if _, err := r.Get(name); err == nil {
			t.Errorf("accepted %q", name)
		}
	}
}

func TestRegistryGetMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	r := NewModelRegistry(dir, 2)
	if _, err := r.Get("missing.surrogate"); err == nil {
		t.Fatal("loaded a missing file")
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.surrogate"), []byte("not a surrogate"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("junk.surrogate"); err == nil {
		t.Fatal("loaded garbage")
	}
}

func TestRegistryList(t *testing.T) {
	dir := modelDir(t, "a.surrogate", "b.surrogate")
	r := NewModelRegistry(dir, 4)
	if _, err := r.Get("a.surrogate"); err != nil {
		t.Fatal(err)
	}
	models, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("listed %d models", len(models))
	}
	if models[0].Name != "a.surrogate" || !models[0].Loaded || models[0].Algo != "conv1d" {
		t.Fatalf("a: %+v", models[0])
	}
	if models[1].Name != "b.surrogate" || models[1].Loaded {
		t.Fatalf("b: %+v", models[1])
	}
}

// TestRegistryReloadsRepublishedModel is the staleness fix's regression
// test: a model republished under the same name (changed bytes on disk)
// must be reloaded on the next Get instead of being served from the old
// in-memory copy forever.
func TestRegistryReloadsRepublishedModel(t *testing.T) {
	dir := modelDir(t, "m.surrogate")
	r := NewModelRegistry(dir, 4)
	first, err := r.Get("m.surrogate")
	if err != nil {
		t.Fatal(err)
	}
	// Republish: same gob payload plus trailing bytes (the decoder ignores
	// them), so the file has a new size — and typically a new mtime.
	blob := surrogateBytes(t)
	republished := append(append([]byte(nil), blob...), "republished"...)
	if err := os.WriteFile(filepath.Join(dir, "m.surrogate"), republished, 0o644); err != nil {
		t.Fatal(err)
	}
	second, err := r.Get("m.surrogate")
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Fatal("republished model served from the stale in-memory copy")
	}
	if loads := r.loads.Value(); loads != 2 {
		t.Fatalf("%d loads, want 2 (the first and the reload)", loads)
	}
	// Steady state: unchanged files are NOT reloaded on every Get.
	third, err := r.Get("m.surrogate")
	if err != nil {
		t.Fatal(err)
	}
	if third != second {
		t.Fatal("unchanged file reloaded")
	}
	if loads := r.loads.Value(); loads != 2 {
		t.Fatalf("loads %d after warm Get, want 2", loads)
	}
}

// TestRegistryServesStoreArtifacts checks the store-backed path: artifact
// IDs resolve through the attached store, stay immutable (no stat
// invalidation), and coexist with raw files.
func TestRegistryServesStoreArtifacts(t *testing.T) {
	store, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sur, err := surrogate.Load(bytes.NewReader(surrogateBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := store.Publish(sur, modelstore.PublishMeta{})
	if err != nil {
		t.Fatal(err)
	}
	dir := modelDir(t, "raw.surrogate")
	r := NewModelRegistry(dir, 4)
	r.AttachStore(store)

	fromStore, err := r.Get(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fromStore.AlgoName != "conv1d" {
		t.Fatalf("store-backed load: %s", fromStore.AlgoName)
	}
	again, err := r.Get(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again != fromStore {
		t.Fatal("immutable store artifact was reloaded")
	}
	if _, err := r.Get("raw.surrogate"); err != nil {
		t.Fatalf("raw file alongside store: %v", err)
	}
	if loads := r.loads.Value(); loads != 2 {
		t.Fatalf("%d loads, want 2", loads)
	}
}
