package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestSpanTreeNesting(t *testing.T) {
	tr := NewTrace("job-1", "job")
	q := tr.Root().StartChild("queue")
	q.End()
	run := tr.Root().StartChild("run")
	s1 := run.StartChild("setup")
	s1.Set("model", "m-1")
	s1.End()
	s2 := run.StartChild("search")
	s2.End()
	run.End()
	tr.End()

	snap := tr.Snapshot()
	if snap.Name != "job" || len(snap.Children) != 2 {
		t.Fatalf("bad root: %+v", snap)
	}
	if snap.Children[0].Name != "queue" || snap.Children[1].Name != "run" {
		t.Fatalf("bad child order: %+v", snap.Children)
	}
	rc := snap.Children[1]
	if len(rc.Children) != 2 || rc.Children[0].Name != "setup" || rc.Children[1].Name != "search" {
		t.Fatalf("bad nesting: %+v", rc)
	}
	if rc.Children[0].Attrs["model"] != "m-1" {
		t.Fatalf("missing attr: %+v", rc.Children[0])
	}
	if snap.Running {
		t.Fatal("ended root should not be running")
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	tr := NewTrace("job-3", "job")
	var wg sync.WaitGroup
	const workers, per = 8, 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c := tr.Root().StartChild(fmt.Sprintf("w%d-%d", w, i))
				c.Set("i", i)
				c.End()
			}
		}(w)
	}
	wg.Wait()
	tr.End()
	snap := tr.Snapshot()
	if len(snap.Children) != workers*per {
		t.Fatalf("children = %d, want %d", len(snap.Children), workers*per)
	}
	for _, c := range snap.Children {
		if c.Running || c.DurationMS < 0 {
			t.Fatalf("bad child: %+v", c)
		}
	}
}

func TestSpanChildCapBoundsMemory(t *testing.T) {
	tr := NewTrace("job-4", "job")
	for i := 0; i < MaxChildren+10; i++ {
		c := tr.Root().StartChild("stride")
		c.End() // nil-safe after the cap
	}
	snap := tr.Snapshot()
	if len(snap.Children) != MaxChildren {
		t.Fatalf("children = %d, want cap %d", len(snap.Children), MaxChildren)
	}
	if snap.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", snap.Dropped)
	}
}

// TestSpanDroppedChildAllocatesNothing pins that a start past the child
// cap is only counted: a long job's recorded samples beyond MaxChildren
// must not each allocate a Span that is then thrown away.
func TestSpanDroppedChildAllocatesNothing(t *testing.T) {
	tr := NewTrace("job-5", "job")
	root := tr.Root()
	for i := 0; i < MaxChildren; i++ {
		root.StartChild("stride")
	}
	before := DroppedSpans()
	allocs := testing.AllocsPerRun(100, func() {
		if c := root.StartChild("stride"); c != nil {
			t.Fatal("child past the cap was stored")
		}
	})
	if allocs != 0 {
		t.Fatalf("dropped StartChild allocates %v times, want 0", allocs)
	}
	if got := DroppedSpans() - before; got != 101 { // AllocsPerRun adds one warm-up run
		t.Fatalf("dropped counter moved by %d, want 101", got)
	}
	if snap := tr.Snapshot(); snap.Dropped != 101 || len(snap.Children) != MaxChildren {
		t.Fatalf("snapshot: %d children, %d dropped", len(snap.Children), snap.Dropped)
	}
}

func TestNilTraceAndSpanSafe(t *testing.T) {
	var tr *Trace
	tr.End()
	_ = tr.Snapshot()
	var s *Span
	s.End()
	s.Set("a", 1)
	if c := s.StartChild("x"); c != nil {
		t.Fatal("nil span should produce nil children")
	}
}

// TestSpanAttrOverwriteSnapshot pins the attribute contract: an overwrite
// replaces the value in place, the snapshot (and so the /trace JSON) reads
// the same bytes whatever order the keys were set in, and up to four
// attributes cost the span one allocation.
func TestSpanAttrOverwriteSnapshot(t *testing.T) {
	tr := NewTrace("job-6", "job")
	root := tr.Root()
	root.Set("status", "running")
	root.Set("queue_wait_ms", 1.5)
	root.Set("atlas_seed", "e-1")
	root.Set("status", "done")
	tr.End()
	got, err := json.Marshal(tr.Snapshot().Attrs)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"atlas_seed":"e-1","queue_wait_ms":1.5,"status":"done"}`; string(got) != want {
		t.Fatalf("attrs = %s, want %s", got, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s := &Span{}
		for _, k := range []string{"a", "b", "c", "a", "d", "b"} {
			s.Set(k, true)
		}
	})
	if allocs != 2 { // the span and its attribute slice
		t.Fatalf("a span with four attributes allocates %v times, want 2", allocs)
	}
}
