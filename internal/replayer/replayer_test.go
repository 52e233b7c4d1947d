package replayer

import (
	"context"
	"errors"
	"testing"
	"time"

	"saql/internal/event"
	"saql/internal/storage"
)

var base = time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)

func storeWith(t *testing.T, evs []*event.Event) *storage.Store {
	t.Helper()
	s, err := storage.Open(t.TempDir(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAll(evs); err != nil {
		t.Fatal(err)
	}
	return s
}

func events(n int, agents ...string) []*event.Event {
	if len(agents) == 0 {
		agents = []string{"h1"}
	}
	out := make([]*event.Event, n)
	for i := range out {
		out[i] = &event.Event{
			ID:      uint64(i + 1),
			Time:    base.Add(time.Duration(i) * time.Second),
			AgentID: agents[i%len(agents)],
			Subject: event.Process("p", 1),
			Op:      event.OpRead,
			Object:  event.File("/f"),
		}
	}
	return out
}

func TestReplayMaxSpeedOrdered(t *testing.T) {
	r := New(storeWith(t, events(50, "h1", "h2")))
	var got []*event.Event
	stats, err := r.Replay(context.Background(), Options{Speed: 0}, func(ev *event.Event) error {
		got = append(got, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 50 || len(got) != 50 {
		t.Fatalf("events = %d", stats.Events)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time.Before(got[i-1].Time) {
			t.Fatal("replay out of order")
		}
	}
	if stats.EventSpan() != 49*time.Second {
		t.Errorf("span = %v", stats.EventSpan())
	}
}

func TestReplaySelection(t *testing.T) {
	r := New(storeWith(t, events(60, "h1", "h2", "h3")))
	stats, err := r.Replay(context.Background(), Options{
		Hosts: []string{"h2"},
		From:  base.Add(10 * time.Second),
		To:    base.Add(40 * time.Second),
	}, func(ev *event.Event) error {
		if ev.AgentID != "h2" {
			t.Fatalf("wrong host %s", ev.AgentID)
		}
		if ev.Time.Before(base.Add(10*time.Second)) || !ev.Time.Before(base.Add(40*time.Second)) {
			t.Fatalf("out of range %v", ev.Time)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 10 {
		t.Errorf("selected = %d, want 10", stats.Events)
	}
}

func TestReplayPacing(t *testing.T) {
	// 10 events spanning 9s of event time at speed 100. With the no-op
	// injected sleep, the wall clock never advances, so each event i
	// requests its full due offset i×10ms: 0+10+...+90 = 450ms total.
	r := New(storeWith(t, events(10)))
	var slept time.Duration
	r.SetSleep(func(d time.Duration) { slept += d })
	if _, err := r.Replay(context.Background(), Options{Speed: 100}, func(*event.Event) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if slept < 400*time.Millisecond || slept > 460*time.Millisecond {
		t.Errorf("paced sleep = %v, want ~450ms", slept)
	}
	// Faster speed requests proportionally less sleep.
	r2 := New(storeWith(t, events(10)))
	var slept2 time.Duration
	r2.SetSleep(func(d time.Duration) { slept2 += d })
	if _, err := r2.Replay(context.Background(), Options{Speed: 1000}, func(*event.Event) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if slept2 >= slept/5 {
		t.Errorf("speed 1000 slept %v, speed 100 slept %v", slept2, slept)
	}
}

func TestReplayNegativeSpeed(t *testing.T) {
	r := New(storeWith(t, events(1)))
	if _, err := r.Replay(context.Background(), Options{Speed: -1}, func(*event.Event) error { return nil }); err == nil {
		t.Error("negative speed accepted")
	}
}

func TestReplayEmitError(t *testing.T) {
	r := New(storeWith(t, events(10)))
	boom := errors.New("boom")
	n := 0
	_, err := r.Replay(context.Background(), Options{}, func(*event.Event) error {
		n++
		if n == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestReplayCancellation(t *testing.T) {
	r := New(storeWith(t, events(1000)))
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	_, err := r.Replay(ctx, Options{}, func(*event.Event) error {
		n++
		if n == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
	if n >= 1000 {
		t.Error("cancellation ignored")
	}
}

// TestReplayCancelMidGap: a paced replay parked in the gap before its next
// event answers cancellation at once, not when the gap is over.
func TestReplayCancelMidGap(t *testing.T) {
	// Two events one second apart at speed 0.01: a 100 s gap.
	r := New(storeWith(t, events(2)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelled time.Time
	n := 0
	_, err := r.Replay(ctx, Options{Speed: 0.01}, func(*event.Event) error {
		n++
		time.AfterFunc(20*time.Millisecond, func() { cancelled = time.Now(); cancel() })
		return nil
	})
	took := time.Since(cancelled)
	if !errors.Is(err, context.Canceled) || n != 1 {
		t.Fatalf("replay = %v after %d events, want context.Canceled after 1", err, n)
	}
	if took > 100*time.Millisecond {
		t.Errorf("replay returned %v after cancellation, want < 100ms", took)
	}
}

func TestReplayEmptySelection(t *testing.T) {
	r := New(storeWith(t, events(5)))
	stats, err := r.Replay(context.Background(), Options{Hosts: []string{"none"}}, func(*event.Event) error {
		t.Fatal("unexpected event")
		return nil
	})
	if err != nil || stats.Events != 0 {
		t.Errorf("empty replay: %v %v", stats, err)
	}
	if stats.Speedup() != 0 || stats.EventSpan() != 0 {
		t.Error("zero stats expected")
	}
}
