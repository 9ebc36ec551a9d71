package resilience

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestJournalFixtureReopens pins the journal's on-disk format: the
// checked-in directory under testdata/journal holds two committed records
// and the torn .tmp- file of a Put a crash interrupted. Reopening a copy
// must sweep the debris and serve both records.
func TestJournalFixtureReopens(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "journal"))); err != nil {
		t.Fatal(err)
	}
	debris := filepath.Join(dir, ".tmp-job-3-1234567")
	if _, err := os.Stat(debris); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(debris); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("reopen did not sweep the torn temp file: %v", err)
	}
	ids, err := j.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"job-1", "job-2"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("List = %v, want %v", ids, want)
	}
	var got rec
	if err := j.Get("job-1", &got); err != nil || got != (rec{ID: "job-1", Best: "m1", N: 2}) {
		t.Fatalf("Get(job-1) = %+v, %v", got, err)
	}
	if err := j.Get("job-3", &got); !errors.Is(err, ErrNotJournaled) {
		t.Fatalf("Get(job-3) = %v, want ErrNotJournaled", err)
	}
}

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

// TestJournalMigratesPerFileLayout pins the migration of one-file-per-id
// records: after OpenJournal only the segment is left, and a reopen
// serves the same records from it.
func TestJournalMigratesPerFileLayout(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "journal"))); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 || des[0].Name() != journalFile {
		t.Fatalf("journal dir after migration holds %v, want only %s", des, journalFile)
	}
	k, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	var got rec
	if err := k.Get("job-2", &got); err != nil || got != (rec{ID: "job-2"}) {
		t.Fatalf("Get(job-2) = %+v, %v", got, err)
	}
}
