package obs

import (
	"sync"
	"time"
)

// FlightRecorder is a fixed-size in-memory ring of operational events: job
// lifecycle transitions, admission rejections, shed decisions, journal and
// retry errors, atlas lookup faults. It answers the postmortem question
// "what happened in the seconds before this job degraded" without log
// shipping: the ring always holds the most recent window, costs one mutex
// plus one slot write per event, and is snapshotted whole by
// GET /debug/flightrecorder and the diag bundle.
//
// Events are rare (per-job and per-incident, never per-eval), so a mutex —
// not the registry's atomics — is the right tool. All methods are
// nil-receiver safe so instrumented code needs no "is the recorder on"
// branches.

// Event severities. Severity is a coarse triage hint, not a log level:
// "error" means an operator should look, "warn" means degraded but
// self-healing, "info" is lifecycle context for reconstructing timelines.
const (
	SevInfo  = "info"
	SevWarn  = "warn"
	SevError = "error"
)

// Event is one entry in the flight-recorder ring.
type Event struct {
	Seq      uint64            `json:"seq"` // 1-based, monotone, never reused
	Time     time.Time         `json:"time"`
	Severity string            `json:"severity"`
	Kind     string            `json:"kind"` // stable machine key, e.g. "job.finish", "admission.reject"
	Msg      string            `json:"msg"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// FlightRecorder holds the last N events. The zero value is unusable; build
// with NewFlightRecorder.
type FlightRecorder struct {
	mu    sync.Mutex
	ring  []Event
	total uint64 // events ever recorded; ring slot = (seq-1) % len
}

// DefaultFlightRecorderSize holds roughly the last few minutes of a busy
// server (events are per-job, not per-eval).
const DefaultFlightRecorderSize = 512

// NewFlightRecorder builds a recorder holding the last size events
// (size <= 0 selects DefaultFlightRecorderSize).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightRecorderSize
	}
	return &FlightRecorder{ring: make([]Event, size)}
}

// Record appends an event, evicting the oldest when the ring is full.
// Attrs is retained as-is; callers must not mutate it afterwards. Nil-safe.
func (fr *FlightRecorder) Record(severity, kind, msg string, attrs map[string]string) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	fr.total++
	fr.ring[int((fr.total-1)%uint64(len(fr.ring)))] = Event{
		Seq:      fr.total,
		Time:     time.Now(),
		Severity: severity,
		Kind:     kind,
		Msg:      msg,
		Attrs:    attrs,
	}
	fr.mu.Unlock()
}

// Total reports how many events were ever recorded (including evicted
// ones). Nil-safe.
func (fr *FlightRecorder) Total() uint64 {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.total
}

// FlightSnapshot is the JSON view of the ring: the retained events oldest
// first, plus how much history has scrolled past.
type FlightSnapshot struct {
	Total  uint64  `json:"total"`  // events ever recorded
	Size   int     `json:"size"`   // ring capacity
	Events []Event `json:"events"` // oldest first; at most Size
}

// Snapshot copies the retained events oldest-first. Nil-safe (returns the
// zero snapshot).
func (fr *FlightRecorder) Snapshot() FlightSnapshot {
	if fr == nil {
		return FlightSnapshot{}
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	n := uint64(len(fr.ring))
	snap := FlightSnapshot{Total: fr.total, Size: len(fr.ring)}
	count := fr.total
	start := uint64(0)
	if count > n {
		start = fr.total - n
		count = n
	}
	snap.Events = make([]Event, 0, count)
	for i := uint64(0); i < count; i++ {
		snap.Events = append(snap.Events, fr.ring[(start+i)%n])
	}
	return snap
}
