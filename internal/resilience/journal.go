package resilience

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mindmappings/internal/blobstore"
)

// ErrNotJournaled is returned by Journal.Get for ids with no record.
var ErrNotJournaled = errors.New("resilience: no journal record")

// Journal is a crash-safe store of JSON records, one per id, kept as an
// append-only segment (blobstore.Segment) in its directory: Put appends a
// record and Delete a tombstone, and Get and List read through the
// segment's id→offset index. Writes run under an optional failpoint (site
// "journal.write") and a bounded retry policy, so injected storage faults
// exercise the retry path real transient I/O errors would.
type Journal struct {
	dir string
	// Retry governs Put; defaults to DefaultRetry. Set before first use.
	Retry RetryPolicy

	failpoint blobstore.Failpoint
	seg       *blobstore.Segment
}

const (
	// journalFile names the segment inside the journal directory.
	journalFile = "journal.log"
	// journalTmpPrefix starts the temp files of the per-record layout.
	journalTmpPrefix = ".tmp-"
)

// OpenJournal creates dir if needed and returns the journal over it. It
// replays the segment, and migrates records of the older one-file-per-id
// layout (<id>.json) into it: each is appended first and its file removed
// after, so a crash in between only repeats the migration. Temp debris of
// that layout is removed.
func OpenJournal(dir string) (*Journal, error) {
	if dir == "" {
		return nil, errors.New("resilience: journal dir required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resilience: creating journal dir: %w", err)
	}
	seg, _, err := blobstore.OpenSegment[struct{}](filepath.Join(dir, journalFile), 0o600, nil)
	if err != nil {
		return nil, fmt.Errorf("resilience: opening journal: %w", err)
	}
	j := &Journal{dir: dir, Retry: DefaultRetry, seg: seg}
	if err := j.migrate(); err != nil {
		seg.Close()
		return nil, err
	}
	return j, nil
}

func (j *Journal) migrate() error {
	ents, err := os.ReadDir(j.dir)
	if err != nil {
		return fmt.Errorf("resilience: reading journal dir: %w", err)
	}
	for _, e := range ents {
		name := filepath.Join(j.dir, e.Name())
		if strings.HasPrefix(e.Name(), journalTmpPrefix) {
			os.Remove(name)
			continue
		}
		id, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || e.IsDir() || validJournalID(id) != nil {
			continue
		}
		raw, err := os.ReadFile(name)
		if err != nil {
			return fmt.Errorf("resilience: migrating journal record %s: %w", id, err)
		}
		if err := j.seg.Put(id, raw); err != nil {
			return fmt.Errorf("resilience: migrating journal record %s: %w", id, err)
		}
		if err := os.Remove(name); err != nil {
			return fmt.Errorf("resilience: migrating journal record %s: %w", id, err)
		}
	}
	return nil
}

// Close releases the journal's segment file.
func (j *Journal) Close() error { return j.seg.Close() }

// SetFailpoint installs fn to be consulted twice before every write
// attempt (op "journal.write"); a non-nil return aborts that attempt. Wire it to
// Faults.Fail to inject journal failures deterministically.
func (j *Journal) SetFailpoint(fn func(op string) error) { j.failpoint.Set(fn) }

func validJournalID(id string) error {
	if !blobstore.ValidID(id) {
		return fmt.Errorf("resilience: bad journal id %q", id)
	}
	return nil
}

// Put atomically writes v as id's record, retrying transient failures
// under the journal's retry policy. The final attempt's error surfaces.
func (j *Journal) Put(id string, v any) error {
	if err := validJournalID(id); err != nil {
		return err
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("resilience: marshaling journal record %s: %w", id, err)
	}
	return j.Retry.Do(context.Background(), func() error { return j.putOnce(id, raw) })
}

// putOnce is one write attempt. The failpoint fires twice, for the record
// and for its commit, so a seeded fault schedule draws twice per attempt.
func (j *Journal) putOnce(id string, raw []byte) error {
	for range 2 {
		if err := j.failpoint.Fire("journal.write"); err != nil {
			return err
		}
	}
	if err := j.seg.Put(id, raw); err != nil {
		return fmt.Errorf("resilience: writing journal record %s: %w", id, err)
	}
	return nil
}

// Get unmarshals id's record into v, or returns ErrNotJournaled.
func (j *Journal) Get(id string, v any) error {
	if err := validJournalID(id); err != nil {
		return err
	}
	raw, ok, err := j.seg.Get(id)
	if err != nil {
		return fmt.Errorf("resilience: reading journal record %s: %w", id, err)
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotJournaled, id)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("resilience: decoding journal record %s: %w", id, err)
	}
	return nil
}

// Delete appends a tombstone for id's record; a missing record is not an
// error (deletes must be idempotent so a crash between delete and its
// caller's state update is harmless on replay).
func (j *Journal) Delete(id string) error {
	if err := validJournalID(id); err != nil {
		return err
	}
	if err := j.seg.Delete(id); err != nil {
		return fmt.Errorf("resilience: deleting journal record %s: %w", id, err)
	}
	return nil
}

// List returns the journaled ids in sorted order.
func (j *Journal) List() ([]string, error) { return j.seg.IDs(), nil }
