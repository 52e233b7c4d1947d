package saql

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

// The stream watermark through an event is the latest event time the stream
// has shown, that event included, and every engine judges a hit late against
// it: serial Process, a started engine at any shard count, a restored one and
// a serial engine started after a warm-up. So a query resumed, registered
// mid-stream or restored counts the stragglers of windows the stream has
// already passed in LateHits, wherever it runs.

// lateProbe counts each process's writes in ten-second windows: every open
// window alerts when it closes.
const lateProbe = `proc p write ip i as e #time(10 s)
state ss { n := count(e) } group by p
alert ss.n > 0
return p, ss.n`

// probeAt is a write by exe at sec seconds into the stream.
func probeAt(sec int, exe string) *Event {
	return &Event{
		Time:    demoStart.Add(time.Duration(sec) * time.Second),
		AgentID: "db-1",
		Subject: Process(exe, 7),
		Op:      OpWrite,
		Object:  NetConn("10.0.0.2", 1433, "10.1.0.1", 443),
		Amount:  10,
	}
}

// probeSpan is a write by exe every five seconds from from to to.
func probeSpan(from, to int, exe string) []*Event {
	var evs []*Event
	for s := from; s <= to; s += 5 {
		evs = append(evs, probeAt(s, exe))
	}
	return evs
}

// lateBurst is writes at from..from+5 seconds by three processes, arriving
// after the stream passed them, then one at end that closes their windows.
func lateBurst(from, end int) []*Event {
	var evs []*Event
	for s := from; s <= from+5; s++ {
		evs = append(evs, probeAt(s, []string{"a.exe", "b.exe", "c.exe"}[s%3]))
	}
	return append(evs, probeAt(end, "a.exe"))
}

// probeEngine drives one engine through a scenario and collects every alert
// its handler sees: serial (shards 0) or started with that many shards.
type probeEngine struct {
	t      *testing.T
	shards int
	eng    *Engine
	mu     sync.Mutex
	alerts []*Alert
	keep   bool // alerts are collected; off for a run that is about to die
}

func newProbe(t *testing.T, shards int, opts ...Option) *probeEngine {
	t.Helper()
	p := &probeEngine{t: t, shards: shards, keep: true}
	p.eng = New(append(opts, p.options()...)...)
	return p
}

// options are the engine options every engine of the probe takes.
func (p *probeEngine) options() []Option {
	opts := []Option{WithAlertHandler(func(a *Alert) {
		p.mu.Lock()
		if p.keep {
			p.alerts = append(p.alerts, a)
		}
		p.mu.Unlock()
	})}
	if p.shards > 0 {
		opts = append(opts, WithShards(p.shards))
	}
	return opts
}

// start starts a probe with shards; a serial one stays serial.
func (p *probeEngine) start() {
	p.t.Helper()
	if p.shards > 0 {
		if err := p.eng.Start(context.Background()); err != nil {
			p.t.Fatal(err)
		}
	}
}

func (p *probeEngine) register(name string) {
	p.t.Helper()
	if _, err := p.eng.Register(name, lateProbe); err != nil {
		p.t.Fatal(err)
	}
}

func (p *probeEngine) handle(name string) *QueryHandle {
	p.t.Helper()
	h, ok := p.eng.Query(name)
	if !ok {
		p.t.Fatalf("no query %q", name)
	}
	return h
}

func (p *probeEngine) feed(evs []*Event) {
	p.t.Helper()
	if p.eng.rt.Load() == nil {
		for _, ev := range evs {
			p.eng.Process(ev)
		}
		return
	}
	if err := p.eng.SubmitBatch(evs); err != nil {
		p.t.Fatal(err)
	}
}

// finish ends the stream — Flush on a serial engine, Close on a started one
// — and returns the alerts' identities, sorted, and the stats of each named
// query.
func (p *probeEngine) finish(names ...string) ([]string, map[string]QueryStats) {
	p.t.Helper()
	stats := map[string]QueryStats{}
	for _, name := range names {
		st, ok := p.eng.QueryStats(name)
		if !ok {
			p.t.Fatalf("no stats for %q", name)
		}
		stats[name] = st
	}
	if p.eng.rt.Load() == nil {
		p.eng.Flush()
	}
	if err := p.eng.Close(); err != nil {
		p.t.Fatal(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]string, len(p.alerts))
	for i, a := range p.alerts {
		ids[i] = alertIdentity(a)
	}
	sort.Strings(ids)
	return ids, stats
}

// TestOneStreamWatermark holds every engine to one stream watermark over a
// disordered stream, case by case, comparing alert identities and LateHits:
//   - a query paused while the stream moves on and resumed before stragglers
//     of the passed windows arrive, serial against 1, 2 and 8 shards;
//   - a query registered mid-stream before such stragglers, likewise;
//   - checkpoint → Restore → Register before stragglers against the run that
//     was never interrupted, serial and started (the restored engine takes
//     the watermark from the journal prefix its snapshot covers);
//   - a serial warm-up, Start, Register and stragglers at once against serial
//     throughout (Start hands the warm-up's watermark to the router), then a
//     resume after the started stream moved on.
func TestOneStreamWatermark(t *testing.T) {
	t.Run("pause-resume", func(t *testing.T) {
		run := func(shards int) ([]string, map[string]QueryStats) {
			p := newProbe(t, shards)
			p.register("steady")
			p.register("late")
			p.start()
			p.feed(probeSpan(0, 50, "a.exe"))
			if err := p.handle("late").Pause(); err != nil {
				t.Fatal(err)
			}
			p.feed(probeSpan(55, 100, "b.exe"))
			if err := p.handle("late").Resume(); err != nil {
				t.Fatal(err)
			}
			p.feed(lateBurst(60, 120))
			return p.finish("steady", "late")
		}
		compareShards(t, run, 6)
	})
	t.Run("mid-stream-register", func(t *testing.T) {
		run := func(shards int) ([]string, map[string]QueryStats) {
			p := newProbe(t, shards)
			p.register("steady")
			p.start()
			p.feed(probeSpan(0, 100, "a.exe"))
			p.register("late")
			p.feed(lateBurst(60, 120))
			return p.finish("steady", "late")
		}
		compareShards(t, run, 6)
	})
	t.Run("restore-register", func(t *testing.T) {
		for _, shards := range []int{0, 2} {
			t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
				p := newProbe(t, shards)
				p.register("steady")
				p.start()
				p.feed(probeSpan(0, 100, "a.exe"))
				p.register("late")
				p.feed(lateBurst(60, 120))
				want, wantStats := p.finish("steady", "late")

				dir := t.TempDir()
				store, err := OpenStore(dir, StoreOptions{})
				if err != nil {
					t.Fatal(err)
				}
				r := newProbe(t, shards, WithJournal(store))
				r.register("steady")
				r.start()
				r.feed(probeSpan(0, 100, "a.exe"))
				if _, err := r.eng.Checkpoint(dir); err != nil {
					t.Fatal(err)
				}
				r.mu.Lock()
				r.keep = false // the crashed run's closing flush is not output
				r.mu.Unlock()
				if err := r.eng.Close(); err != nil {
					t.Fatal(err)
				}
				opts := []RestoreOption{WithRestoreEngineOptions(r.options()...)}
				if shards == 0 {
					opts = append(opts, WithoutStart())
				}
				if r.eng, _, err = Restore(dir, opts...); err != nil {
					t.Fatal(err)
				}
				r.mu.Lock()
				r.keep = true
				r.mu.Unlock()
				r.register("late")
				r.feed(lateBurst(60, 120))
				got, gotStats := r.finish("steady", "late")
				compareProbe(t, "restored", "uninterrupted", got, want, gotStats, wantStats, 6)
			})
		}
	})
	t.Run("warm-start-register", func(t *testing.T) {
		run := func(shards int) ([]string, map[string]QueryStats) {
			p := newProbe(t, shards)
			p.register("steady")
			p.register("paused")
			p.feed(probeSpan(0, 50, "a.exe"))
			if err := p.handle("paused").Pause(); err != nil {
				t.Fatal(err)
			}
			p.feed(probeSpan(55, 100, "a.exe"))
			p.start()
			p.register("late")
			p.feed(lateBurst(60, 120))
			p.feed(probeSpan(125, 150, "b.exe"))
			if err := p.handle("paused").Resume(); err != nil {
				t.Fatal(err)
			}
			p.feed(lateBurst(130, 170))
			return p.finish("steady", "paused", "late")
		}
		compareShards(t, run, 12)
	})
}

// compareShards runs a scenario serially and at 1, 2 and 8 shards: every
// started run must raise the serial run's alerts and count its late hits.
func compareShards(t *testing.T, run func(shards int) ([]string, map[string]QueryStats), late int64) {
	t.Helper()
	want, wantStats := run(0)
	if len(want) == 0 {
		t.Fatal("the serial run raised no alerts")
	}
	for _, shards := range []int{1, 2, 8} {
		got, gotStats := run(shards)
		compareProbe(t, fmt.Sprintf("shards=%d", shards), "serial", got, want, gotStats, wantStats, late)
	}
}

// compareProbe is compareRuns, and the reference's query "late" must count
// late every straggler it was offered: late of them.
func compareProbe(t *testing.T, label, ref string, got, want []string, gotStats, wantStats map[string]QueryStats, late int64) {
	t.Helper()
	compareRuns(t, label, ref, got, want, gotStats, wantStats)
	if n := wantStats["late"].LateHits; n != late {
		t.Errorf("%s: query late counted %d late hits, want all %d stragglers", ref, n, late)
	}
}

// compareRuns fails unless two runs raised the same alerts and agree on
// every stats field of every query.
func compareRuns(t *testing.T, label, ref string, got, want []string, gotStats, wantStats map[string]QueryStats) {
	t.Helper()
	if !slices.Equal(got, want) {
		diffAlertSets(t, fmt.Sprintf("%s against %s", label, ref), want, got)
	}
	for name, st := range wantStats {
		if g := gotStats[name]; g != st {
			t.Errorf("%s: %s stats %+v, %s %+v", label, name, g, ref, st)
		}
	}
}

// TestReplayJournalWatermark: ReplayJournal(from) on a never-started engine
// raises the stream watermark to what the skipped prefix reached, as Open
// does for its snapshot's prefix. The prefix runs to 100 s and the tail only
// to 30 s, so a query registered after the replay must count the
// stragglers at 60–65 s late on both ways in.
func TestReplayJournalWatermark(t *testing.T) {
	// journaled writes a journal whose checkpoint, taken with no query
	// registered, covers a prefix running to 100 s; the tail after it is
	// older.
	journaled := func() (dir string, from int64) {
		dir = t.TempDir()
		store, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		p := newProbe(t, 0, WithJournal(store))
		p.feed(probeSpan(0, 100, "a.exe"))
		info, err := p.eng.Checkpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		p.feed(probeSpan(20, 30, "b.exe"))
		if err := p.eng.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, info.Offset
	}
	finish := func(p *probeEngine) ([]string, map[string]QueryStats) {
		p.register("late")
		p.feed(lateBurst(60, 120))
		return p.finish("late")
	}

	dir, from := journaled()
	opened := newProbe(t, 0)
	var info *RestoreInfo
	var err error
	if opened.eng, info, err = Open(dir, WithRestoreEngineOptions(opened.options()...), WithoutStart()); err != nil {
		t.Fatal(err)
	}
	if info.Offset != from || info.Replayed != 3 {
		t.Fatalf("Open = %+v, want offset %d and the 3 tail events replayed", info, from)
	}
	want, wantStats := finish(opened)

	dir, _ = journaled()
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	replayed := newProbe(t, 0, WithJournal(store))
	if n, err := replayed.eng.ReplayJournal(from); err != nil || n != 3 {
		t.Fatalf("ReplayJournal(%d) = %d, %v; want the 3 tail events", from, n, err)
	}
	got, gotStats := finish(replayed)
	compareProbe(t, "ReplayJournal", "Open", got, want, gotStats, wantStats, 6)
}
