package obs

import (
	"slices"
	"sync"
	"testing"
	"time"
)

func TestStreamHistoryAndRing(t *testing.T) {
	s := NewStream[int](4)
	for i := 1; i <= 6; i++ {
		s.Publish(i)
	}
	got := s.History()
	want := []int{3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("history = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("history = %v, want %v", got, want)
		}
	}
	// Subscribe replays the wrapped ring oldest first too.
	hist, _, cancel := s.Subscribe(1)
	defer cancel()
	if !slices.Equal(hist, want) {
		t.Fatalf("subscribe history = %v, want %v", hist, want)
	}
	checkClosedHistory(t, s, want)
}

// checkClosedHistory closes s and checks that it keeps exactly want,
// oldest first with no slack and no subscriber table, and that History and
// Subscribe still return it.
func checkClosedHistory(t *testing.T, s *Stream[int], want []int) {
	t.Helper()
	s.Close()
	if !slices.Equal(s.ring, want) || cap(s.ring) != len(s.ring) || s.start != 0 || s.subs != nil {
		t.Fatalf("closed stream: ring %v (cap %d, start %d), %d subscriber slots; want %v at exact size",
			s.ring, cap(s.ring), s.start, len(s.subs), want)
	}
	if got := s.History(); !slices.Equal(got, want) {
		t.Fatalf("history after close = %v, want %v", got, want)
	}
	hist, ch, cancel := s.Subscribe(1)
	defer cancel()
	if _, open := <-ch; open || !slices.Equal(hist, want) {
		t.Fatalf("subscribe after close: history %v, channel open %v; want %v, closed", hist, open, want)
	}
}

// TestStreamGrowsToWhatItPublished pins that the bound is a cap, not a
// preallocation: a stream that published 10 samples holds those 10.
func TestStreamGrowsToWhatItPublished(t *testing.T) {
	s := NewStream[int](256)
	want := make([]int, 10)
	for i := range want {
		want[i] = i + 1
		s.Publish(want[i])
	}
	if got := s.History(); !slices.Equal(got, want) {
		t.Fatalf("history = %v, want %v", got, want)
	}
	hist, _, cancel := s.Subscribe(1)
	defer cancel()
	if !slices.Equal(hist, want) {
		t.Fatalf("subscribe history = %v, want %v", hist, want)
	}
	if len(s.ring) != 10 || cap(s.ring) > 32 {
		t.Fatalf("ring len %d cap %d, want 10 elements in at most 32 slots", len(s.ring), cap(s.ring))
	}
	checkClosedHistory(t, s, want)
}

func TestStreamSubscribeDeliversAndCancels(t *testing.T) {
	s := NewStream[int](8)
	s.Publish(1)
	hist, ch, cancel := s.Subscribe(4)
	if len(hist) != 1 || hist[0] != 1 {
		t.Fatalf("history = %v", hist)
	}
	s.Publish(2)
	select {
	case v := <-ch:
		if v != 2 {
			t.Fatalf("got %d, want 2", v)
		}
	case <-time.After(time.Second):
		t.Fatal("no delivery")
	}
	cancel()
	cancel() // idempotent
	if _, open := <-ch; open {
		t.Fatal("channel should be closed after cancel")
	}
	s.Publish(3) // must not panic with the subscriber gone
}

func TestStreamCloseTerminatesSubscribers(t *testing.T) {
	s := NewStream[string](2)
	_, ch, cancel := s.Subscribe(1)
	defer cancel()
	s.Publish("a")
	s.Close()
	s.Close() // idempotent
	s.Publish("dropped")
	var got []string
	for v := range ch {
		got = append(got, v)
	}
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("drained %v, want [a]", got)
	}
	// Late subscriber: history plus an already-closed channel.
	hist, late, cancel2 := s.Subscribe(1)
	defer cancel2()
	if len(hist) != 1 {
		t.Fatalf("late history = %v", hist)
	}
	if _, open := <-late; open {
		t.Fatal("late channel should be closed")
	}
}

func TestStreamSlowSubscriberDropsNotBlocks(t *testing.T) {
	s := NewStream[int](4)
	_, ch, cancel := s.Subscribe(1)
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			s.Publish(i)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish blocked on a slow subscriber")
	}
	// The subscriber still sees something (the first buffered sample).
	select {
	case <-ch:
	default:
		t.Fatal("expected at least one buffered sample")
	}
}

func TestStreamConcurrentPublishSubscribe(t *testing.T) {
	s := NewStream[int](64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_, ch, cancel := s.Subscribe(2)
					select {
					case <-ch:
					default:
					}
					cancel()
				}
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		s.Publish(i)
	}
	close(stop)
	wg.Wait()
	s.Close()
	// Every publish landed: the ring holds the last 64, in order.
	hist := s.History()
	if len(hist) != 64 {
		t.Fatalf("history after 5000 publishes holds %d, want 64", len(hist))
	}
	for i, v := range hist {
		if v != 5000-64+i {
			t.Fatalf("history after 5000 publishes = %v, want 4936..4999", hist)
		}
	}
}
