package atlas

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strconv"
	"testing"

	"mindmappings/internal/mapspace"
)

// BenchmarkAtlasPublish publishes one solution per op under a new key,
// the write-back a persist-churn job makes.
func BenchmarkAtlasPublish(b *testing.B) {
	a, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	e, m := testSolution(b, 1024, 5.0, 1)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		i++
		e.Key = strconv.Itoa(i)
		if _, ok, err := a.Publish(e, &m); err != nil || !ok {
			b.Fatalf("publish %d: ok=%v err=%v", i, ok, err)
		}
	}
}

// benchEntries is the atlas size of the index benchmarks.
const benchEntries = 10000

// fingerprint returns a 64-hex fingerprint, as workload and arch
// fingerprints are.
func fingerprint(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// fillAtlas publishes n seven-dimension CNN-layer entries spread over
// families workload fingerprints, each under a distinct shape, as a
// server's write-backs would: the key, family and shape of each entry are
// fresh values and the fingerprints are shared.
func fillAtlas(b *testing.B, a *Atlas, n, families int, m *mapspace.Mapping) (family string) {
	b.Helper()
	archFP := fingerprint("arch")
	algoFPs := make([]string, families)
	for f := range algoFPs {
		algoFPs[f] = fingerprint("cnn-layer" + strconv.Itoa(f))
	}
	for i := range n {
		algoFP := algoFPs[i%families]
		j := i / families
		shape := []int{1 + j%2, 16 * (1 + j/2%32), 16 * (1 + j/64%32), 7 * (1 + j/2048%8), 7 * (1 + j/2048%8), 3, 3}
		key, fam := Key(algoFP, archFP, "timeloop", "EDP", shape)
		e := Entry{
			Key: key, Family: fam, Algo: "cnn-layer", AlgoFP: algoFP, ArchFP: archFP,
			CostModel: "timeloop", Objective: "EDP", Shape: shape,
			BestEDP: 1 + float64(i%97), Evals: 2000, Method: "GA", Source: "serve",
		}
		if _, ok, err := a.Publish(e, m); err != nil || !ok {
			b.Fatalf("publish %d: ok=%v err=%v", i, ok, err)
		}
		family = fam
	}
	return family
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// BenchmarkAtlasEntryBytes reports the live heap an atlas of 10k entries
// (seven-dimension shapes, 64-hex fingerprints, four families) holds per
// entry, segment index included: after publishing them, and after
// reopening the atlas from its segment. One op builds and reopens it; run
// with -benchtime 1x.
func BenchmarkAtlasEntryBytes(b *testing.B) {
	_, m := testSolution(b, 1024, 1, 1)
	for b.Loop() {
		dir := b.TempDir()
		base := liveHeap()
		a, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		fillAtlas(b, a, benchEntries, 4, &m)
		published := liveHeap() - base
		runtime.KeepAlive(a)
		if err := a.Close(); err != nil {
			b.Fatal(err)
		}
		a = nil
		base = liveHeap()
		if a, err = Open(dir); err != nil {
			b.Fatal(err)
		}
		reopened := liveHeap() - base
		if st := a.Stats(); st.Entries != benchEntries {
			b.Fatalf("reopened %d entries", st.Entries)
		}
		a.Close()
		b.ReportMetric(published/benchEntries, "B/entry-published")
		b.ReportMetric(reopened/benchEntries, "B/entry-reopened")
	}
}

// BenchmarkAtlasNearest asks for the neighbour of an unseen shape in a
// family of 10k seven-dimension entries and reports the time per scanned
// entry; the one mapping decode a call makes is in it.
func BenchmarkAtlasNearest(b *testing.B) {
	a, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	_, m := testSolution(b, 1024, 1, 1)
	family := fillAtlas(b, a, benchEntries, 1, &m)
	target := []int{1, 200, 200, 30, 30, 3, 3}
	b.ReportAllocs()
	for b.Loop() {
		if _, _, _, ok, err := a.Nearest(family, target); err != nil || !ok {
			b.Fatalf("nearest: ok=%v err=%v", ok, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchEntries, "ns/entry")
}
