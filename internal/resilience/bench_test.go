package resilience

import "testing"

// BenchmarkJournalPutDelete journals a record and deletes it, the journal
// traffic of a job that submits and finishes without a checkpoint.
func BenchmarkJournalPutDelete(b *testing.B) {
	j, err := OpenJournal(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	r := rec{ID: "job-1", Best: "m1", N: 2}
	b.ReportAllocs()
	for b.Loop() {
		if err := j.Put("job-1", r); err != nil {
			b.Fatal(err)
		}
		if err := j.Delete("job-1"); err != nil {
			b.Fatal(err)
		}
	}
}
