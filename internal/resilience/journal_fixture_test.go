package resilience

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestJournalSegmentFixtureReopens pins the journal's segment format: the
// checked-in testdata/journal-segment/journal.log holds puts of job-1
// (twice), job-2 and job-3, a tombstone for job-3, and the first half of a
// put of job-4 that a crash tore. Reopening a copy must truncate the torn
// tail, serve the live records, and take new ones.
func TestJournalSegmentFixtureReopens(t *testing.T) {
	const goodSize = 201 // the offset just past the last whole record
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "journal-segment"))); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(dir, journalFile)); err != nil || st.Size() != goodSize {
		t.Fatalf("segment after reopen: %v, %v; want %d bytes", st, err, goodSize)
	}
	if ids, _ := j.List(); !reflect.DeepEqual(ids, []string{"job-1", "job-2"}) {
		t.Fatalf("List = %v", ids)
	}
	var got rec
	if err := j.Get("job-1", &got); err != nil || got != (rec{ID: "job-1", Best: "m1", N: 2}) {
		t.Fatalf("Get(job-1) = %+v, %v", got, err)
	}
	for _, id := range []string{"job-3", "job-4"} {
		if err := j.Get(id, &got); !errors.Is(err, ErrNotJournaled) {
			t.Fatalf("Get(%s) = %v, want ErrNotJournaled", id, err)
		}
	}
	if err := j.Put("job-4", rec{ID: "job-4"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	k, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if ids, _ := k.List(); !reflect.DeepEqual(ids, []string{"job-1", "job-2", "job-4"}) {
		t.Fatalf("reopened List = %v", ids)
	}
}
