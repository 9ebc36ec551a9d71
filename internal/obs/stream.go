package obs

import "sync"

// Stream is a bounded publish/subscribe ring for live progress telemetry:
// the producer (a search's trajectory hook, a training job's epoch
// callback) publishes samples; the ring retains the most recent capacity
// of them so late subscribers (the trace endpoint, a reconnecting SSE
// client) see history; subscribers receive new samples on a buffered
// channel. capacity is a cap, not a preallocation: the ring grows with
// what was published and wraps only once it holds capacity samples.
//
// Publish never blocks: a subscriber that cannot keep up has samples
// dropped (progress telemetry is resumable from any point — the next
// sample supersedes the missed ones). Close marks the stream terminal and
// closes every subscriber channel; publishing after Close is a no-op. A
// closed stream keeps only its history, oldest first and at exact size:
// no append slack, no subscriber table.
type Stream[T any] struct {
	mu     sync.Mutex
	ring   []T // retained elements; grows by append up to limit
	limit  int
	start  int               // index of the oldest retained element (0 until full)
	subs   map[uint64]chan T // nil once closed
	nextID uint64
	closed bool
}

// NewStream returns a stream retaining the most recent capacity samples
// (minimum 1). It allocates no slots up front: a stream that ends after n
// samples holds about n, however large capacity is.
func NewStream[T any](capacity int) *Stream[T] {
	return &Stream[T]{
		limit: max(capacity, 1),
		subs:  make(map[uint64]chan T),
	}
}

// Publish appends a sample to the ring and fans it out to subscribers
// without blocking (slow subscribers drop it).
func (s *Stream[T]) Publish(v T) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if len(s.ring) < s.limit {
		s.ring = append(s.ring, v)
	} else {
		s.ring[s.start] = v
		s.start = (s.start + 1) % len(s.ring)
	}
	for _, ch := range s.subs {
		select {
		case ch <- v:
		default: // slow subscriber: drop
		}
	}
	s.mu.Unlock()
}

// History returns the retained samples, oldest first.
func (s *Stream[T]) History() []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.historyLocked()
}

// historyLocked copies the retained samples, oldest first.
func (s *Stream[T]) historyLocked() []T {
	out := make([]T, 0, len(s.ring))
	out = append(out, s.ring[s.start:]...)
	return append(out, s.ring[:s.start]...)
}

// Subscribe returns the retained history plus a channel delivering samples
// published after the snapshot, and a cancel function that must be called
// when done (idempotent; also safe after Close). Subscribing to a closed
// stream returns the history and an already-closed channel. buf is the
// subscriber channel capacity (minimum 1).
//
// History and channel are atomic with respect to Publish: no sample is
// both in the history and on the channel, and none falls between.
func (s *Stream[T]) Subscribe(buf int) (history []T, ch <-chan T, cancel func()) {
	if buf < 1 {
		buf = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	history = s.historyLocked()
	c := make(chan T, buf)
	if s.closed {
		close(c)
		return history, c, func() {}
	}
	id := s.nextID
	s.nextID++
	s.subs[id] = c
	var once sync.Once
	cancel = func() {
		once.Do(func() {
			s.mu.Lock()
			if ch, ok := s.subs[id]; ok {
				delete(s.subs, id)
				close(ch)
			}
			s.mu.Unlock()
		})
	}
	return history, c, cancel
}

// Close marks the stream terminal and closes all subscriber channels
// (after any samples already buffered on them). The retained history is
// re-sliced to exactly its samples, oldest first, and the subscriber table
// is dropped: nothing is published or subscribed to a closed stream again.
// Idempotent.
func (s *Stream[T]) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, ch := range s.subs {
		close(ch)
	}
	s.subs = nil
	s.ring, s.start = s.historyLocked(), 0
}
