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
