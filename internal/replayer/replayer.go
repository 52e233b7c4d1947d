// Package replayer implements the paper's stream replayer: it reads stored
// system monitoring data for a selection of hosts and a start/end time and
// replays it as a live event stream at a configurable speed multiplier, so
// attack traces can be reproduced on demand against different queries
// (Figure 4 of the paper).
package replayer

import (
	"context"
	"fmt"
	"sort"
	"time"

	"saql/internal/event"
	"saql/internal/storage"
)

// Options select what to replay and how fast.
type Options struct {
	// Hosts restricts replay to these agents; empty replays all.
	Hosts []string
	// From/To bound the replayed time range.
	From time.Time
	To   time.Time
	// Speed is the time compression factor: 1 = real time, 10 = 10×
	// faster, 0 = as fast as possible.
	Speed float64
}

// Stats summarise one replay run.
type Stats struct {
	Events     int64
	FirstEvent time.Time
	LastEvent  time.Time
	Wall       time.Duration
}

// EventSpan is the event-time span covered.
func (s Stats) EventSpan() time.Duration {
	if s.Events == 0 {
		return 0
	}
	return s.LastEvent.Sub(s.FirstEvent)
}

// Speedup is the achieved time compression (event span / wall time).
func (s Stats) Speedup() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.EventSpan()) / float64(s.Wall)
}

// Replayer replays events from a store.
type Replayer struct {
	store *storage.Store
	// sleep, when set, replaces the cancellable pacing wait (tests).
	sleep func(time.Duration)
}

// New creates a replayer over store.
func New(store *storage.Store) *Replayer {
	return &Replayer{store: store}
}

// SetSleep overrides the pacing wait (tests).
func (r *Replayer) SetSleep(f func(time.Duration)) { r.sleep = f }

// wait paces the replay by d, returning early with ctx's error when it is
// cancelled mid-gap.
func (r *Replayer) wait(ctx context.Context, d time.Duration) error {
	if r.sleep != nil {
		r.sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Replay streams the selected events in event-time order to emit, pacing
// them by the speed multiplier, until the selection is exhausted, emit fails
// or ctx is cancelled. It returns replay statistics.
func (r *Replayer) Replay(ctx context.Context, opts Options, emit func(*event.Event) error) (Stats, error) {
	var stats Stats
	if opts.Speed < 0 {
		return stats, fmt.Errorf("replayer: negative speed %g", opts.Speed)
	}
	evs, err := r.store.ReadAll(storage.Selection{Hosts: opts.Hosts, From: opts.From, To: opts.To})
	if err != nil {
		return stats, err
	}
	// Storage order is per-segment append order; restore global event-time
	// order across hosts.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
	if len(evs) == 0 {
		return stats, nil
	}

	start := time.Now()
	base := evs[0].Time
	for _, ev := range evs {
		err := ctx.Err()
		if err == nil && opts.Speed > 0 {
			// Pace: the event is due after (eventTime-base)/speed of
			// wall time.
			due := time.Duration(float64(ev.Time.Sub(base)) / opts.Speed)
			if ahead := due - time.Since(start); ahead > 0 {
				err = r.wait(ctx, ahead)
			}
		}
		if err == nil {
			err = emit(ev)
		}
		if err != nil {
			stats.Wall = time.Since(start)
			return stats, err
		}
		if stats.Events == 0 {
			stats.FirstEvent = ev.Time
		}
		stats.LastEvent = ev.Time
		stats.Events++
	}
	stats.Wall = time.Since(start)
	return stats, nil
}
