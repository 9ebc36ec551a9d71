package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Spans are lightweight in-process trace nodes: a Trace is one tree per
// request or job, and spans nest through explicit StartChild calls (no
// span rides in a context.Context). All methods are nil-receiver safe, so
// instrumented code paths need no "is tracing on" branches, and safe for
// concurrent use, so parallel phases of one job can attach children to a
// shared parent.
//
// Memory is bounded: each span keeps at most MaxChildren children (extra
// starts are counted, not stored), so per-trajectory-stride search spans
// cannot grow a long job's trace without limit.

// MaxChildren caps the stored children per span.
const MaxChildren = 128

// droppedSpans counts spans discarded process-wide by the MaxChildren cap.
// Per-span drops already surface in that span's snapshot, but nothing
// aggregated them, so cap-induced data loss was invisible to a scrape.
var droppedSpans atomic.Int64

// DroppedSpans reports the process-wide number of spans discarded because
// their parent hit MaxChildren (exported as obs_dropped_spans_total).
func DroppedSpans() int64 { return droppedSpans.Load() }

// Span is one timed operation in a trace tree.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time // zero while running
	children []*Span
	dropped  int
	attrs    map[string]any
}

// Trace is a per-job/per-request span tree.
type Trace struct {
	ID   string
	root *Span
}

// NewTrace starts a trace whose root span begins now.
func NewTrace(id, rootName string) *Trace {
	return &Trace{ID: id, root: &Span{name: rootName, start: time.Now()}}
}

// Root returns the root span (nil-safe).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// End finishes the root span.
func (t *Trace) End() { t.Root().End() }

// StartChild starts a child span under s. Returns nil (safe for all Span
// methods) when s is nil or the child cap is reached — the drop is counted
// and surfaced in the snapshot, and costs no allocation or clock read.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.children) >= MaxChildren {
		s.dropped++
		droppedSpans.Add(1)
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.children = append(s.children, c)
	return c
}

// End finishes the span; the first End wins, later calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Set attaches (or overwrites) an attribute. Values should be JSON-encodable
// scalars; attributes are for small annotations (eval counts, model IDs),
// not payloads.
func (s *Span) Set(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// SpanSnapshot is the JSON view of one span. Times are relative to the
// trace root's start so trees are readable without clock context.
type SpanSnapshot struct {
	Name       string         `json:"name"`
	StartMS    float64        `json:"start_ms"`
	DurationMS float64        `json:"duration_ms"`
	Running    bool           `json:"running,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Dropped    int            `json:"dropped_children,omitempty"`
	Children   []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot renders the trace tree; running spans report their duration so
// far. Nil-safe (returns the zero snapshot).
func (t *Trace) Snapshot() SpanSnapshot {
	if t == nil || t.root == nil {
		return SpanSnapshot{}
	}
	now := time.Now()
	return t.root.snapshot(t.root.start, now)
}

func (s *Span) snapshot(origin, now time.Time) SpanSnapshot {
	s.mu.Lock()
	end := s.end
	running := end.IsZero()
	if running {
		end = now
	}
	var attrs map[string]any
	if len(s.attrs) > 0 {
		attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			attrs[k] = v
		}
	}
	children := append([]*Span(nil), s.children...)
	dropped := s.dropped
	s.mu.Unlock()

	snap := SpanSnapshot{
		Name:       s.name,
		StartMS:    float64(s.start.Sub(origin).Microseconds()) / 1e3,
		DurationMS: float64(end.Sub(s.start).Microseconds()) / 1e3,
		Running:    running,
		Attrs:      attrs,
		Dropped:    dropped,
	}
	for _, c := range children {
		snap.Children = append(snap.Children, c.snapshot(origin, now))
	}
	return snap
}
