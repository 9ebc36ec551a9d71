package atlas

import (
	"strconv"
	"testing"
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
