package blobstore

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// Op is one file mutation a Recorder logged. Name and To are relative to
// the recorder's root.
type Op struct {
	Kind string // "create", "write", "truncate", "rename" or "remove"
	Name string
	To   string // the rename target
	Data []byte // the bytes written
	Size int64  // the truncated size
}

// Recorder is a file layer for crash tests. It performs every mutation on
// the OS, and logs those under its root in order: file creates, writes,
// truncations, renames and removals. Reads are not logged.
type Recorder struct {
	root string

	mu      sync.Mutex
	ops     []Op
	creates int
}

// Record routes the package's file mutations through a Recorder rooted at
// a fresh directory until the test ends.
func Record(t *testing.T) *Recorder {
	r := &Recorder{root: t.TempDir()}
	disk = r
	t.Cleanup(func() { disk = osLayer{} })
	return r
}

// Root returns the directory whose mutations the recorder logs.
func (r *Recorder) Root() string { return r.root }

// Len returns the number of ops logged so far.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

// Creates counts the files created under the root.
func (r *Recorder) Creates() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.creates
}

// Ops returns a copy of the log.
func (r *Recorder) Ops() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.ops)
}

func (r *Recorder) rel(name string) (string, bool) {
	rel, err := filepath.Rel(r.root, name)
	return rel, err == nil && !strings.HasPrefix(rel, "..")
}

func (r *Recorder) log(op Op) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if op.Kind == "create" {
		r.creates++
	}
	r.ops = append(r.ops, op)
}

func (r *Recorder) OpenFile(name string, flag int, perm fs.FileMode) (file, error) {
	rel, mine := r.rel(name)
	created := false
	if mine && flag&os.O_CREATE != 0 {
		_, err := os.Stat(name)
		created = errors.Is(err, fs.ErrNotExist)
	}
	f, err := osLayer{}.OpenFile(name, flag, perm)
	if err != nil || !mine {
		return f, err
	}
	if created {
		r.log(Op{Kind: "create", Name: rel})
	}
	return &recordedFile{file: f, r: r, name: rel}, nil
}

func (r *Recorder) Rename(from, to string) error {
	err := os.Rename(from, to)
	relFrom, mine := r.rel(from)
	relTo, _ := r.rel(to)
	if err == nil && mine {
		r.log(Op{Kind: "rename", Name: relFrom, To: relTo})
	}
	return err
}

func (r *Recorder) Remove(name string) error {
	err := os.Remove(name)
	if rel, mine := r.rel(name); err == nil && mine {
		r.log(Op{Kind: "remove", Name: rel})
	}
	return err
}

// recordedFile logs the writes and truncations of one file. The package
// never writes to a file after renaming it, so the name it was opened
// under identifies it.
type recordedFile struct {
	file
	r    *Recorder
	name string
}

func (f *recordedFile) Write(p []byte) (int, error) {
	n, err := f.file.Write(p)
	if n > 0 {
		f.r.log(Op{Kind: "write", Name: f.name, Data: slices.Clone(p[:n])})
	}
	return n, err
}

func (f *recordedFile) Truncate(size int64) error {
	err := f.file.Truncate(size)
	if err == nil {
		f.r.log(Op{Kind: "truncate", Name: f.name, Size: size})
	}
	return err
}

// Rebuild replays ops into the empty directory dir. Every write appends,
// as each write the package makes does: to an O_APPEND file or, in order,
// to a fresh one.
func Rebuild(dir string, ops []Op) error {
	for _, op := range ops {
		name := filepath.Join(dir, op.Name)
		var err error
		switch op.Kind {
		case "create":
			if err = os.MkdirAll(filepath.Dir(name), 0o755); err == nil {
				err = os.WriteFile(name, nil, 0o644)
			}
		case "write":
			var f *os.File
			if f, err = os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0); err == nil {
				_, err = f.Write(op.Data)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
		case "truncate":
			err = os.Truncate(name, op.Size)
		case "rename":
			err = os.Rename(name, filepath.Join(dir, op.To))
		case "remove":
			err = os.Remove(name)
		default:
			err = errors.New("unknown op " + op.Kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
