package saql

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"saql/internal/conformance"
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
// every stats field of every query but StateBytes, which sums the encoded
// state of a query's replicas and so grows by a header per extra replica.
func compareRuns(t *testing.T, label, ref string, got, want []string, gotStats, wantStats map[string]QueryStats) {
	t.Helper()
	if !slices.Equal(got, want) {
		diffAlertSets(t, fmt.Sprintf("%s against %s", label, ref), want, got)
	}
	for name, st := range wantStats {
		g := gotStats[name]
		g.StateBytes, st.StateBytes = 0, 0
		if g != st {
			t.Errorf("%s: %s stats %+v, %s %+v", label, name, gotStats[name], ref, st)
		}
	}
}

// disorderNames are the disordered hammers' queries: a variant set of two
// window lengths, a hopping window, a global aggregate, a history ring, a
// rule and a clustering query — every placement. The last two start
// unregistered, so the script registers them mid-disorder.
var disorderNames = []string{"count-1s", "count-2s", "hop-dst", "global", "hist", "big-write", "outlier-dst"}

// disorderVariant is query name's k-th source; variants differ only in
// thresholds, so a carrying Update stays legal.
func disorderVariant(name string, k int) string {
	switch name {
	case "count-1s", "count-2s":
		return fmt.Sprintf(`proc p write ip i as e #time(%s)
state ss { n := count(e)
           amt := sum(e.amount) } group by p
alert ss.n > %d
return p, ss.n, ss.amt`, strings.Replace(strings.TrimPrefix(name, "count-"), "s", " s", 1), 2+k%2)
	case "hop-dst":
		return fmt.Sprintf(`proc p write ip i as e #time(3 s, 1 s)
state ss { amt := sum(e.amount) } group by i.dstip
alert ss.amt > %d
return i.dstip, ss.amt`, 50000+k*1000)
	case "global":
		return fmt.Sprintf(`proc p write ip i as e #time(2 s)
state ss { total := sum(e.amount) }
alert ss.total > %d
return ss.total`, 100000+k*1000)
	case "hist":
		return fmt.Sprintf(`proc p write ip i as e #time(1 s)
state[3] ss { amt := sum(e.amount) } group by p
alert ss[0].amt > ss[1].amt + %d && ss[0].amt > 100
return p, ss[0].amt, ss[1].amt`, 500+k*50)
	case "big-write":
		return fmt.Sprintf(`proc p write ip i as e
alert e.amount > %d
return p, e.amount`, 100000+k*100)
	case "outlier-dst":
		return fmt.Sprintf(`proc p write ip i as e #time(2 s)
state ss { amt := sum(e.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="ed", method="DBSCAN(%d, 3)")
alert cluster.outlier && ss.amt > 1000
return i.dstip, ss.amt`, 20000+k*1000)
	}
	panic("unknown query " + name)
}

// disorderStep is one step of a disordered hammer's script.
type disorderStep struct {
	op    string // submit | pause | resume | update | register | remove
	block int
	name  string
	src   string
	carry bool
}

// disorderRun is one disordered hammer run: the stream, cut into blocks, and
// the script that interleaves them with control operations.
type disorderRun struct {
	seed   int64
	events []*Event
	blocks int
	script []disorderStep
	final  []string // the queries registered when the script ends
}

// newDisorderRun derives a run from seed: a one-second-window stream late by
// up to three windows whose last host's clock jumps back four seconds, and
// after each block one or two control operations on random queries — pause
// or resume, Update (fresh or carrying), Close, and Register of a query not
// registered, a closed one included.
func newDisorderRun(seed int64) *disorderRun {
	d := &disorderRun{seed: seed, blocks: 24}
	stream := conformance.Disorder{Seed: seed, Start: demoStart, Events: 2400, Window: time.Second, Late: 3, Jump: 4 * time.Second}.Stream()
	d.events = make([]*Event, len(stream))
	copy(d.events, stream)
	rng := rand.New(rand.NewSource(seed))
	live, paused, version := map[string]bool{}, map[string]bool{}, map[string]int{}
	for _, name := range disorderNames[:len(disorderNames)-2] {
		live[name] = true
	}
	for b := 0; b < d.blocks; b++ {
		d.script = append(d.script, disorderStep{op: "submit", block: b})
		for i := 0; i < 1+rng.Intn(2); i++ {
			name := disorderNames[rng.Intn(len(disorderNames))]
			if !live[name] {
				version[name]++
				d.script = append(d.script, disorderStep{op: "register", name: name, src: disorderVariant(name, version[name])})
				live[name], paused[name] = true, false
				continue
			}
			switch rng.Intn(4) {
			case 0:
				op := "pause"
				if paused[name] {
					op = "resume"
				}
				d.script = append(d.script, disorderStep{op: op, name: name})
				paused[name] = !paused[name]
			case 1:
				version[name]++
				carry := name != "big-write" && rng.Intn(2) == 0
				d.script = append(d.script, disorderStep{op: "update", name: name, src: disorderVariant(name, version[name]), carry: carry})
			case 2:
				d.script = append(d.script, disorderStep{op: "remove", name: name})
				live[name] = false
			}
		}
	}
	for _, name := range disorderNames {
		if live[name] {
			d.final = append(d.final, name)
		}
	}
	return d
}

// register registers the queries the script starts with.
func (d *disorderRun) register(p *probeEngine) {
	p.t.Helper()
	for _, name := range disorderNames[:len(disorderNames)-2] {
		if _, err := p.eng.Register(name, disorderVariant(name, 0)); err != nil {
			p.t.Fatal(err)
		}
	}
}

// drive runs script[from:to] on p's engine: serially through Process, or
// through SubmitBatch in sub-batches of one to 48 events cut by chop.
func (d *disorderRun) drive(p *probeEngine, from, to int, chop *rand.Rand) {
	t := p.t
	t.Helper()
	size := len(d.events) / d.blocks
	for _, st := range d.script[from:to] {
		switch st.op {
		case "submit":
			lo, hi := st.block*size, (st.block+1)*size
			if st.block == d.blocks-1 {
				hi = len(d.events)
			}
			for lo < hi {
				n := hi - lo
				if p.eng.rt.Load() != nil {
					n = min(n, 1+chop.Intn(48))
				}
				p.feed(d.events[lo : lo+n])
				lo += n
			}
		case "register":
			if _, err := p.eng.Register(st.name, st.src); err != nil {
				t.Fatalf("register %s: %v", st.name, err)
			}
		default:
			h := p.handle(st.name)
			var err error
			switch st.op {
			case "pause":
				err = h.Pause()
			case "resume":
				err = h.Resume()
			case "remove":
				err = h.Close()
			case "update":
				var opts []UpdateOption
				if st.carry {
					opts = append(opts, CarryWindowState())
				}
				err = h.Update(st.src, opts...)
			}
			if err != nil {
				t.Fatalf("%s %s: %v", st.op, st.name, err)
			}
		}
	}
}

// disorderSeed is the disordered hammers' seed: SAQL_CONFORMANCE_SEED, or a
// fresh one, logged either way.
func disorderSeed(t *testing.T) int64 {
	t.Helper()
	seed := time.Now().UnixNano()
	if s := os.Getenv("SAQL_CONFORMANCE_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SAQL_CONFORMANCE_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("disorder seed = %d (set SAQL_CONFORMANCE_SEED=%d to reproduce)", seed, seed)
	return seed
}

// TestDisorderedLifecycleHammer is the lifecycle hammer over a disordered
// stream: one seed-driven script of event blocks — late by up to three
// windows, one host's clock jumping back — interleaved with Pause, Resume,
// Update, Close and Register runs on a never-started engine and at 1, 2 and
// 8 shards, started engines fed in randomly chopped sub-batches. Every
// started engine raises the serial alerts, and every registered query's
// QueryStats — LateHits and events offered included — read the serial ones.
func TestDisorderedLifecycleHammer(t *testing.T) {
	d := newDisorderRun(disorderSeed(t))
	run := func(shards int) ([]string, map[string]QueryStats) {
		p := newProbe(t, shards, WithIngestQueue(64))
		d.register(p)
		p.start()
		d.drive(p, 0, len(d.script), rand.New(rand.NewSource(d.seed+int64(shards)*1000003)))
		return p.finish(d.final...)
	}
	want, wantStats := run(0)
	var late int64
	for _, st := range wantStats {
		late += st.LateHits
	}
	if len(want) == 0 || late == 0 {
		t.Fatalf("the serial run raised %d alerts and counted %d late hits: the stream tests nothing", len(want), late)
	}
	t.Logf("%d script steps, %d alerts, %d late hits", len(d.script), len(want), late)
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got, gotStats := run(shards)
			compareRuns(t, fmt.Sprintf("seed %d shards %d", d.seed, shards), "serial", got, want, gotStats, wantStats)
		})
	}
}

// TestDisorderedRecoveryHammer is the recovery hammer over the same
// disordered, controlled stream: a durable engine — serial, or at 1, 2 or 8
// shards — checkpoints before a random step, runs on and dies before a
// random later one, three times over; Restore from the snapshot, and the script re-driven from
// the checkpoint, must give the alerts and QueryStats of the serial run that
// was never interrupted. The restored engine takes the stream watermark from
// the journal prefix the snapshot covers.
func TestDisorderedRecoveryHammer(t *testing.T) {
	d := newDisorderRun(disorderSeed(t))
	// A barrier lands before a step of the middle half; three in four before
	// a query resumes or joins, where a restored engine that lost the
	// stream's time would let the next stragglers in.
	rng := rand.New(rand.NewSource(d.seed ^ 0x5eed))
	var joins []int
	for i := len(d.script) / 4; i < 3*len(d.script)/4; i++ {
		if op := d.script[i].op; op == "resume" || op == "register" || op == "update" {
			joins = append(joins, i)
		}
	}
	type barrier struct{ cp, kill int }
	barriers := make([]barrier, 3)
	for i := range barriers {
		cp := len(d.script)/4 + rng.Intn(len(d.script)/2)
		if len(joins) > 0 && rng.Intn(4) > 0 {
			cp = joins[rng.Intn(len(joins))]
		}
		barriers[i] = barrier{cp, cp + rng.Intn(len(d.script)-cp+1)}
	}
	t.Logf("%d script steps; checkpoint and kill before steps %v", len(d.script), barriers)

	ref := newProbe(t, 0)
	d.register(ref)
	d.drive(ref, 0, len(d.script), nil)
	want, wantStats := ref.finish(d.final...)

	for _, shards := range []int{0, 1, 2, 8} {
		for i, b := range barriers {
			t.Run(fmt.Sprintf("shards=%d/barrier=%d", shards, i), func(t *testing.T) {
				cp, kill := b.cp, b.kill
				dir := t.TempDir()
				store, err := OpenStore(dir, StoreOptions{})
				if err != nil {
					t.Fatal(err)
				}
				p := newProbe(t, shards, WithJournal(store))
				d.register(p)
				p.start()
				chop := rand.New(rand.NewSource(d.seed + int64(shards)*7919))
				d.drive(p, 0, cp, chop)
				if _, err := p.eng.Checkpoint(dir); err != nil {
					t.Fatal(err)
				}
				p.mu.Lock()
				p.keep = false // the doomed run's output dies with it
				p.mu.Unlock()
				d.drive(p, cp, kill, chop)
				if err := p.eng.Close(); err != nil {
					t.Fatal(err)
				}
				opts := []RestoreOption{WithoutReplay(), WithRestoreEngineOptions(p.options()...)}
				if shards == 0 {
					opts = append(opts, WithoutStart())
				}
				if p.eng, _, err = Restore(dir, opts...); err != nil {
					t.Fatal(err)
				}
				p.mu.Lock()
				p.keep = true
				p.mu.Unlock()
				d.drive(p, cp, len(d.script), chop)
				got, gotStats := p.finish(d.final...)
				compareRuns(t, fmt.Sprintf("seed %d shards %d restored at step %d", d.seed, shards, cp), "uninterrupted serial", got, want, gotStats, wantStats)
			})
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
