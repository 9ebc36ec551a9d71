package resilience

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mindmappings/internal/blobstore"
)

// ErrNotJournaled is returned by Journal.Get for ids with no record.
var ErrNotJournaled = errors.New("resilience: no journal record")

// Journal is a crash-safe directory of JSON records, one file per id,
// written through blobstore.WriteAtomic; temp debris from a crash mid-Put
// is ignored by List/Get and swept on Open. Writes run under an optional
// failpoint (site "journal.write") and a bounded retry policy, so injected
// storage faults exercise the retry path real transient I/O errors would.
type Journal struct {
	dir string
	// Retry governs Put; defaults to DefaultRetry. Set before first use.
	Retry RetryPolicy

	failpoint blobstore.Failpoint
}

const journalTmpPrefix = ".tmp-"

// OpenJournal creates dir if needed, sweeps temp debris left by a crash,
// and returns the journal over it.
func OpenJournal(dir string) (*Journal, error) {
	if dir == "" {
		return nil, errors.New("resilience: journal dir required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resilience: creating journal dir: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("resilience: reading journal dir: %w", err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), journalTmpPrefix) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return &Journal{dir: dir, Retry: DefaultRetry}, nil
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// SetFailpoint installs fn to be consulted before every write and rename
// (op "journal.write"); a non-nil return aborts that attempt. Wire it to
// Faults.Fail to inject journal failures deterministically.
func (j *Journal) SetFailpoint(fn func(op string) error) { j.failpoint.Set(fn) }

func validJournalID(id string) error {
	if !blobstore.ValidID(id) {
		return fmt.Errorf("resilience: bad journal id %q", id)
	}
	return nil
}

func (j *Journal) path(id string) string { return filepath.Join(j.dir, id+".json") }

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

// putOnce is one write attempt; the failpoint fires before the temp file
// is written and again before the committing rename.
func (j *Journal) putOnce(id string, raw []byte) error {
	if err := j.failpoint.Fire("journal.write"); err != nil {
		return err
	}
	var injected error
	err := blobstore.WriteAtomic(j.path(id), journalTmpPrefix+id+"-", 0o600, raw, func() error {
		injected = j.failpoint.Fire("journal.write")
		return injected
	})
	if err != nil && injected == nil {
		return fmt.Errorf("resilience: writing journal record %s: %w", id, err)
	}
	return err
}

// Get unmarshals id's record into v, or returns ErrNotJournaled.
func (j *Journal) Get(id string, v any) error {
	if err := validJournalID(id); err != nil {
		return err
	}
	raw, err := os.ReadFile(j.path(id))
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: %s", ErrNotJournaled, id)
	}
	if err != nil {
		return fmt.Errorf("resilience: reading journal record %s: %w", id, err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("resilience: decoding journal record %s: %w", id, err)
	}
	return nil
}

// Delete removes id's record; a missing record is not an error (deletes
// must be idempotent so a crash between delete and its caller's state
// update is harmless on replay).
func (j *Journal) Delete(id string) error {
	if err := validJournalID(id); err != nil {
		return err
	}
	if err := os.Remove(j.path(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("resilience: deleting journal record %s: %w", id, err)
	}
	return nil
}

// List returns the journaled ids in sorted order, ignoring temp debris.
func (j *Journal) List() ([]string, error) {
	ents, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("resilience: reading journal dir: %w", err)
	}
	var ids []string
	for _, e := range ents {
		if id, ok := strings.CutSuffix(e.Name(), ".json"); ok && !e.IsDir() && !strings.HasPrefix(id, journalTmpPrefix) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}
