package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"saql"
	"saql/internal/source"
)

// scenario is one workload: a query set, the form the input arrives in,
// whether ingest is journaled, and the closed loop's batch size.
type scenario struct {
	Name    string
	Why     string
	Queries func(*corpus) []namedQuery
	// Raw feeds rendered NDJSON lines through saql.NewSource; otherwise
	// pre-built events go straight to SubmitBatch.
	Raw bool
	// Journal adds WithJournal, checkpoints under load, and a crash at 90%
	// of the corpus followed by Restore.
	Journal bool
	// Batch is the events per SubmitBatch in the closed loop (a Raw source
	// forms its own batches).
	Batch int
}

var scenarios = []scenario{
	{
		Name:    "raw-cold",
		Why:     "NDJSON lines through codec+source with host-pinned queries: decode is nearly all the work, engine state almost none",
		Queries: coldQueries, Raw: true,
	},
	{
		Name:    "hot-state",
		Why:     "pre-built events, 32 fleet-wide stateful queries: shared evaluation, state folding and the router/shards do all the work, codec none",
		Queries: func(*corpus) []namedQuery { return hotQueries() }, Batch: 512,
	},
	{
		Name:    "durable",
		Why:     "journaled ingest with checkpoints under load, a crash at 90% and Restore: journal writes beside snapshot and journal reads",
		Queries: mixedQueries, Journal: true, Batch: 512,
	},
	{
		Name:    "paced",
		Why:     "open loop of 64-event batches at a fixed rate: delay from an event being due to its alert arriving, where queueing dominates",
		Queries: func(*corpus) []namedQuery { return hotQueries() }, Batch: 64,
	},
}

func findScenario(name string) (scenario, bool) {
	for _, s := range scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return scenario{}, false
}

const (
	// referenceRate is the open-loop rate every latency figure is taken at:
	// roughly a quarter of what the hot query set sustains on two cores, so
	// the figure is queueing and pipeline depth, not saturation.
	referenceRate = 40000.0
	// pacedBatch is the events (for Raw: lines) per open-loop submission, on
	// every workload: small, so that the median alert waits on the pipeline's
	// hand-offs rather than on the events ahead of it in its own batch.
	pacedBatch = 64
	// checkpointEvery is the number of events between checkpoints under load.
	checkpointEvery = 25000
)

// ladderRates are the rungs above the reference rate.
var ladderRates = []float64{80000, 120000, 160000, 200000, 240000}

// input is what every rep of one run shares. The engine only ever sees
// Events / Lines and the query sources: never the seed or the workload name.
type input struct {
	sc      scenario
	c       *corpus
	queries []namedQuery
	nd      *rendered      // Raw only
	ref     map[string]int // the serial reference's alerts, as a multiset
	tmp     string         // parent of the journal directories
	probe   *probe         // the speed kernel (probe.go); nil: reps are not probed
}

// rep is what one pass over the corpus measured. Every rep starts from a
// collected heap (runtime.GC before any timing), so one rep's garbage is not
// collected on the next rep's clock.
type rep struct {
	Setup time.Duration // New + Register + OpenStore + Start
	Wall  time.Duration // first submit to Close returning, speed samples taken off
	Close time.Duration // the final Close alone (drain + flush)
	// Kernel is the speed kernel's nominal time ÷ its mean time while the rep
	// ran (probe.go): 1 on an undisturbed core.
	Kernel float64
	Events int
	Failed int // events rejected or dropped + decode errors + alerts missing or spurious
	// QueryErrors is the engines' runtime query error count (also in Failed).
	QueryErrors int64
	Stats       saql.Stats
	State       int64 // serialized live state across tenants, just before Close
	Shards      int

	Blocked     time.Duration // time inside SubmitBatch (traced reps only)
	Checkpoints []time.Duration
	Stall       time.Duration // longest SubmitBatch while a checkpoint was in flight (traced reps only)
	Restore     time.Duration
	Replayed    int64

	// Open loop only; one value per marker or per batch.
	LatencyMS []float64 // receipt − due
	DetectUS  []float64 // Alert.Detected − due
	DeliverUS []float64 // receipt − Alert.Detected
	LateMS    []float64 // submit start − due
	SubDrops  int64
	Backlog   []backlogPoint
}

type backlogPoint struct {
	At      time.Duration
	Backlog int64
}

// alertKey is an alert's identity for the multiset comparison: query, event
// time, group key and returned values.
func alertKey(a *saql.Alert) string {
	var sb strings.Builder
	sb.WriteString(a.Query)
	sb.WriteByte('|')
	sb.WriteString(strconv.FormatInt(a.EventTime.UnixNano(), 10))
	sb.WriteByte('|')
	sb.WriteString(a.GroupKey)
	for _, nv := range a.Values {
		sb.WriteByte('|')
		sb.WriteString(nv.Name)
		sb.WriteByte('=')
		sb.WriteString(nv.Val.String())
	}
	return sb.String()
}

func multiset(alerts []*saql.Alert) map[string]int {
	m := make(map[string]int, len(alerts))
	for _, a := range alerts {
		m[alertKey(a)]++
	}
	return m
}

// mismatch counts alerts missing from or spurious in got, against the
// serial reference.
func (in *input) mismatch(got []*saql.Alert) int {
	g := multiset(got)
	bad := 0
	for k, want := range in.ref {
		if d := want - g[k]; d > 0 {
			bad += d
		} else {
			bad -= d
		}
	}
	for k, n := range g {
		if _, ok := in.ref[k]; !ok {
			bad += n
		}
	}
	return bad
}

// sink collects every alert an engine raises. The fan-out invokes the
// handler serially; n is what another goroutine may read meanwhile.
type sink struct {
	alerts []*saql.Alert
	n      atomic.Int64
}

func (s *sink) handle(a *saql.Alert) {
	s.alerts = append(s.alerts, a)
	s.n.Add(1)
}

// engineSetup is what a user does before the first event: build the engine
// with library defaults (plus the journal where the workload has one),
// register the query set, start. It returns the marker query's handle.
func (in *input) engineSetup(tr *tracer, parent int, start bool, opts ...saql.Option) (*saql.Engine, *saql.QueryHandle, error) {
	id := tr.begin("parser.register", parent)
	eng := saql.New(opts...)
	var marker *saql.QueryHandle
	for _, q := range in.queries {
		h, err := eng.Register(q.Name, q.SAQL)
		if err != nil {
			return nil, nil, fmt.Errorf("register %s: %w", q.Name, err)
		}
		if q.Name == markerQuery.Name {
			marker = h
		}
	}
	tr.end(id)
	if start {
		id = tr.begin("runtime.start", parent)
		err := eng.Start(context.Background())
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
	}
	return eng, marker, nil
}

// open is the whole set-up of a running engine, timed: on journaled
// workloads a fresh store directory and OpenStore, then engineSetup with
// Start. The caller removes dir (empty when there is no journal).
func (in *input) open(tr *tracer, parent int, handler func(*saql.Alert)) (eng *saql.Engine, marker *saql.QueryHandle, dir string, took time.Duration, err error) {
	t0 := time.Now()
	opts := []saql.Option{saql.WithAlertHandler(handler)}
	if in.sc.Journal {
		if dir, err = os.MkdirTemp(in.tmp, "journal-"); err != nil {
			return nil, nil, "", 0, err
		}
		id := tr.begin("storage.open", parent)
		store, err := saql.OpenStore(dir, saql.StoreOptions{})
		tr.end(id)
		if err != nil {
			return nil, nil, dir, 0, err
		}
		opts = append(opts, saql.WithJournal(store))
	}
	eng, marker, err = in.engineSetup(tr, parent, true, opts...)
	return eng, marker, dir, time.Since(t0), err
}

// setupOnly sets an engine up and tears it down, for one more set-up sample.
func (in *input) setupOnly() (time.Duration, error) {
	eng, _, dir, took, err := in.open(nil, -1, func(*saql.Alert) {})
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if err != nil {
		return 0, err
	}
	return took, eng.Close()
}

// finish closes eng, reads the counters that only settle at Close, and
// scores the rep against the reference.
func (in *input) finish(r *rep, eng *saql.Engine, tr *tracer, parent int, t0 time.Time, m *speedMeter, alerts *sink, pre []*saql.Alert) {
	if tr != nil {
		for _, t := range eng.Tenants() {
			r.State += t.StateBytes
		}
	}
	r.Shards = eng.Shards()
	tc := time.Now()
	id := tr.begin("runtime.close", parent)
	_ = eng.Close() // Close reports journal errors through the engine's error ring, checked below
	tr.end(id)
	r.Close = time.Since(tc)
	r.Wall = time.Since(t0) - m.offClock()
	m.sample(parent)
	r.Kernel = m.kernelSpeed()
	r.Stats = eng.Stats()
	all := slices.Concat(pre, alerts.alerts)
	qerrs := eng.ErrorCount()
	r.QueryErrors += qerrs
	r.Failed += int(r.Stats.Dropped+r.Stats.DecodeErrors+r.Stats.SourceDropped+qerrs) + in.mismatch(all)
}

// runSerial is the single-threaded baseline and the oracle: a never-started
// engine driven by Process and Flush on the caller's goroutine.
func (in *input) runSerial() (rep, []*saql.Alert, error) {
	runtime.GC()
	r := rep{Events: len(in.c.Events)}
	m := in.meter(nil, true)
	eng, _, err := in.engineSetup(nil, -1, false)
	if err != nil {
		return r, nil, err
	}
	var alerts []*saql.Alert
	m.sample(-1)
	t0 := time.Now()
	for i, ev := range in.c.Events {
		alerts = append(alerts, eng.Process(ev)...)
		if sliceEnd(i, i+1, r.Events) {
			m.sample(-1)
		}
	}
	alerts = append(alerts, eng.Flush()...)
	r.Wall = time.Since(t0) - m.offClock()
	m.sample(-1)
	r.Kernel = m.kernelSpeed()
	r.Stats = eng.Stats()
	r.QueryErrors = eng.ErrorCount()
	r.Failed = int(r.QueryErrors)
	_ = eng.Close()
	return r, alerts, nil
}

// submitter is the submitting goroutine's way into the engine: it counts
// rejected events and, when traced, times each call and notes the longest
// one that overlapped a checkpoint. It satisfies source.Submitter, so the
// traced raw rep can put it between the source and the engine.
type submitter struct {
	eng    *saql.Engine
	tr     *tracer
	parent int
	inCkpt *atomic.Bool
	r      *rep
}

func (s *submitter) SubmitBatch(evs []*saql.Event) error {
	if s.tr == nil {
		err := s.eng.SubmitBatch(evs)
		if err != nil {
			s.r.Failed += len(evs)
		}
		return err
	}
	during := s.inCkpt != nil && s.inCkpt.Load()
	t0 := time.Now()
	id := s.tr.begin("runtime.submit", s.parent)
	err := s.eng.SubmitBatch(evs)
	s.tr.end(id)
	d := time.Since(t0)
	s.r.Blocked += d
	if during || (s.inCkpt != nil && s.inCkpt.Load()) {
		s.r.Stall = max(s.r.Stall, d)
	}
	if err != nil {
		s.r.Failed += len(evs)
	}
	return err
}

// checkpointer runs Engine.Checkpoint on its own goroutine each time the
// submitting goroutine asks, so checkpoints overlap ingest.
type checkpointer struct {
	req    chan struct{}
	done   chan struct{}
	active atomic.Bool
	mu     sync.Mutex
	durs   []time.Duration
	err    error
}

func startCheckpointer(eng *saql.Engine, dir string, tr *tracer, parent int) *checkpointer {
	c := &checkpointer{req: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for range c.req {
			c.checkpoint(eng, dir, tr, parent)
		}
	}()
	return c
}

func (c *checkpointer) checkpoint(eng *saql.Engine, dir string, tr *tracer, parent int) {
	c.active.Store(true)
	t0 := time.Now()
	id := tr.begin("snapshot.checkpoint", parent)
	_, err := eng.Checkpoint(dir)
	tr.end(id)
	d := time.Since(t0)
	c.active.Store(false)
	c.mu.Lock()
	c.durs = append(c.durs, d)
	if err != nil && c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// ask requests a checkpoint unless one is already pending.
func (c *checkpointer) ask() {
	select {
	case c.req <- struct{}{}:
	default:
	}
}

// stop waits for any checkpoint in flight and ends the goroutine.
func (c *checkpointer) stop() {
	close(c.req)
	<-c.done
}

// runClosed is one closed-loop rep: a fresh engine with library defaults,
// one submitting goroutine that sends the next batch when the previous call
// returns, then Close.
func (in *input) runClosed(tr *tracer) (rep, error) {
	runtime.GC()
	tr.nextRep()
	root := tr.begin("rep.closed", -1)
	defer tr.end(root)
	switch {
	case in.sc.Raw:
		return in.closedRaw(tr, root)
	case in.sc.Journal:
		return in.closedDurable(tr, root)
	}
	r := rep{Events: len(in.c.Events)}
	var alerts sink
	eng, _, _, setup, err := in.open(tr, root, alerts.handle)
	if err != nil {
		return r, err
	}
	r.Setup = setup
	sub := submitter{eng: eng, tr: tr, parent: root, r: &r}
	m := in.meter(tr, false)
	m.sample(root)
	t0 := time.Now()
	evs := in.c.Events
	for i := 0; i < len(evs); i += in.sc.Batch {
		j := min(i+in.sc.Batch, len(evs))
		_ = sub.SubmitBatch(evs[i:j]) // a rejected batch is counted in r.Failed
		if sliceEnd(i, j, len(evs)) {
			m.pause(eng, root)
		}
	}
	in.finish(&r, eng, tr, root, t0, m, &alerts, nil)
	return r, nil
}

// slicedReader hands the rendered corpus to a source one slice at a time,
// and calls pause (from the source's reading goroutine) between slices.
type slicedReader struct {
	nd    *rendered
	n     int // lines in all
	next  int // the slice to hand out next
	cur   []byte
	pause func()
}

func (s *slicedReader) Read(p []byte) (int, error) {
	for len(s.cur) == 0 {
		if s.next == probeSlices {
			return 0, io.EOF
		}
		i, j := s.next*s.n/probeSlices, (s.next+1)*s.n/probeSlices
		if s.next > 0 && j > i {
			s.pause()
		}
		if s.next++; j > i {
			s.cur = s.nd.lines(i, j)
		}
	}
	n := copy(p, s.cur)
	s.cur = s.cur[n:]
	return n, nil
}

func (in *input) closedRaw(tr *tracer, root int) (rep, error) {
	r := rep{Events: len(in.c.Events)}
	var alerts sink
	eng, _, _, setup, err := in.open(tr, root, alerts.handle)
	if err != nil {
		return r, err
	}
	r.Setup = setup
	m := in.meter(tr, false)
	m.sample(root)
	lines := &slicedReader{nd: in.nd, n: r.Events, pause: func() { m.pause(eng, root) }}
	t0 := time.Now()
	if tr == nil {
		src, err := saql.NewSource(lines, saql.WithFormat("ndjson"))
		if err != nil {
			return r, err
		}
		if err := src.Run(context.Background(), eng); err != nil {
			return r, err
		}
		in.finish(&r, eng, tr, root, t0, m, &alerts, nil)
		return r, nil
	}
	{
		// The public Source.Run accepts only *Engine; the traced pass drives
		// the same internal source with a timing wrapper in between.
		src, err := source.FromReader(lines, source.Config{Format: "ndjson"})
		if err != nil {
			return r, err
		}
		id := tr.begin("source.run", root)
		err = src.Run(context.Background(), &submitter{eng: eng, tr: tr, parent: id, r: &r})
		tr.end(id)
		if err != nil {
			return r, err
		}
		in.finish(&r, eng, tr, root, t0, m, &alerts, nil)
		// The engine never saw this source; fold its counters in by hand.
		st := src.Stats()
		r.Failed += int(st.DecodeErrors + st.Dropped)
		return r, nil
	}
}

// closedDurable journals every event and checkpoints under load. At 85% of
// the corpus the submitting goroutine takes one last checkpoint itself, so
// the alerts raised up to that barrier are known exactly; at 90% the engine
// "crashes" (closed with its later output discarded, as the repo's own
// recovery tests do), Restore rebuilds it and replays the journal tail, and
// the remaining 10% is ingested. Alerts up to the barrier plus everything
// the restored engine raises must equal the uninterrupted reference.
func (in *input) closedDurable(tr *tracer, root int) (rep, error) {
	r := rep{Events: len(in.c.Events)}
	evs := in.c.Events
	barrier, crash := len(evs)*85/100, len(evs)*90/100
	var before, after sink
	eng, _, dir, setup, err := in.open(tr, root, before.handle)
	defer os.RemoveAll(dir)
	if err != nil {
		return r, err
	}
	r.Setup = setup

	ck := startCheckpointer(eng, dir, tr, root)
	sub := submitter{eng: eng, tr: tr, parent: root, r: &r, inCkpt: &ck.active}
	m := in.meter(tr, false)
	m.sample(root)
	t0 := time.Now()
	feed := func(from, to int, checkpoints bool) {
		for i := from; i < to; i += in.sc.Batch {
			j := min(i+in.sc.Batch, to)
			_ = sub.SubmitBatch(evs[i:j]) // a rejected batch is counted in r.Failed
			if checkpoints && i/checkpointEvery != j/checkpointEvery {
				ck.ask()
			}
			if sliceEnd(i, j, len(evs)) {
				m.pause(sub.eng, root)
			}
		}
	}
	feed(0, barrier, true)
	ck.stop()
	ck.checkpoint(eng, dir, tr, root)
	r.Checkpoints, err = ck.durs, ck.err
	if err != nil {
		return r, err
	}
	kept := int(before.n.Load()) // every alert up to the barrier has been delivered by now
	feed(barrier, crash, false)
	id := tr.begin("runtime.close", root)
	_ = eng.Close()
	tr.end(id)
	r.QueryErrors = eng.ErrorCount()
	r.Failed += int(eng.Stats().Dropped + r.QueryErrors)

	tr0 := time.Now()
	restoreOpts := []saql.RestoreOption{saql.WithRestoreEngineOptions(saql.WithAlertHandler(after.handle))}
	var eng2 *saql.Engine
	if tr == nil {
		var info *saql.RestoreInfo
		eng2, info, err = saql.Restore(dir, restoreOpts...)
		if err != nil {
			return r, err
		}
		r.Replayed = info.Replayed
	} else {
		// Same work, split so snapshot load and journal replay are two spans.
		id = tr.begin("restore.snapshot_load", root)
		var info *saql.RestoreInfo
		eng2, info, err = saql.Restore(dir, append(restoreOpts, saql.WithoutReplay())...)
		tr.end(id)
		if err != nil {
			return r, err
		}
		id = tr.begin("restore.replay", root)
		r.Replayed, err = eng2.ReplayJournal(info.Offset)
		tr.end(id)
		if err != nil {
			return r, err
		}
	}
	r.Restore = time.Since(tr0)
	sub.eng = eng2
	feed(crash, len(evs), false)
	in.finish(&r, eng2, tr, root, t0, m, &after, before.alerts[:kept])
	return r, nil
}

// runPaced is one open-loop pass at rate events/s: batch k is due at
// t0 + k·pacedBatch/rate and is sent then whether or not the engine has kept
// up; a second goroutine receives the marker query's subscription. Latency
// counts from the due time, so a stalled submit charges every batch queued
// behind it. With sampleEvery > 0 a third goroutine samples the backlog.
// A probed pass stops the schedule at every slice boundary, lets the engine
// run dry, samples the machine's speed and moves the remaining due times on
// by as long as that took; the ladder's passes are not probed, because a
// backlog must be left to grow.
func (in *input) runPaced(rate float64, tr *tracer, sampleEvery time.Duration, probed bool) (rep, error) {
	runtime.GC()
	tr.nextRep()
	root := tr.begin("rep.paced", -1)
	defer tr.end(root)
	r := rep{Events: len(in.c.Events)}
	n, batch := len(in.c.Events), pacedBatch

	var alerts sink
	eng, marker, dir, setup, err := in.open(tr, root, alerts.handle)
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if err != nil {
		return r, err
	}
	r.Setup = setup

	// The buffer holds every marker alert, so the engine never waits for
	// this subscriber; drops would show in SubDrops. The engine's public
	// counters say how much it has accepted, not how much it has processed,
	// so progress is read off the alerts too: a marker's alert proves every
	// event up to that marker is through.
	markers := in.c.Markers
	subscription := marker.Subscribe(len(markers)+1, saql.Block)
	recv := make([]time.Time, len(markers))
	detected := make([]time.Time, len(markers))
	var submitted, processed atomic.Int64
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		for a := range subscription.C {
			now := time.Now()
			if m := int(a.Events[0].Subject.PID); m >= 0 && m < len(recv) {
				recv[m], detected[m] = now, a.Detected
				processed.Store(int64(markers[m] + 1))
			}
		}
	}()

	var ck *checkpointer
	if in.sc.Journal {
		ck = startCheckpointer(eng, dir, tr, root)
	}
	var sampler sync.WaitGroup
	stopSampler := make(chan struct{})
	if sampleEvery > 0 {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(sampleEvery)
			defer tick.Stop()
			start := time.Now()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					r.Backlog = append(r.Backlog, backlogPoint{time.Since(start), submitted.Load() - processed.Load()})
				}
			}
		}()
	}

	// Raw input is written to a pipe the source reads, a chunk of lines at
	// each due time.
	var pw *io.PipeWriter
	srcDone := make(chan error, 1)
	if in.sc.Raw {
		var pr *io.PipeReader
		pr, pw = io.Pipe()
		src, err := saql.NewSource(pr, saql.WithFormat("ndjson"))
		if err != nil {
			return r, err
		}
		go func() { srcDone <- src.Run(context.Background(), eng) }()
	}

	var m *speedMeter
	if probed {
		m = in.meter(tr, false)
	}
	units := (n + batch - 1) / batch
	due := func(k int) time.Duration { return time.Duration(float64(k*batch) / rate * float64(time.Second)) }
	r.LateMS = make([]float64, units)
	dueAt := make([]time.Time, units)
	m.sample(root)
	began := time.Now()
	t0 := began // moves on by the length of every pause
	for k := 0; k < units; k++ {
		if d := due(k) - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		dueAt[k] = t0.Add(due(k))
		r.LateMS[k] = float64(time.Since(dueAt[k])) / 1e6
		i, j := k*batch, min((k+1)*batch, n)
		id := tr.begin("runtime.submit", root)
		if in.sc.Raw {
			if _, err := pw.Write(in.nd.lines(i, j)); err != nil {
				r.Failed += j - i
			}
		} else if err := eng.SubmitBatch(in.c.Events[i:j]); err != nil {
			r.Failed += j - i
		}
		tr.end(id)
		submitted.Store(int64(j))
		if ck != nil && i/checkpointEvery != j/checkpointEvery {
			ck.ask()
		}
		if m != nil && sliceEnd(i, j, n) {
			p0 := time.Now()
			m.pause(eng, root)
			t0 = t0.Add(time.Since(p0))
		}
	}
	if in.sc.Raw {
		pw.Close()
		if err := <-srcDone; err != nil {
			return r, err
		}
	}
	if ck != nil {
		ck.stop()
		r.Checkpoints = ck.durs
		if ck.err != nil {
			return r, ck.err
		}
	}
	close(stopSampler)
	sampler.Wait()
	in.finish(&r, eng, tr, root, began, m, &alerts, nil)
	<-subDone
	r.SubDrops = subscription.Dropped()

	for i, idx := range markers {
		if recv[i].IsZero() {
			continue // a lost marker alert is already counted by the oracle
		}
		at := dueAt[idx/batch]
		r.LatencyMS = append(r.LatencyMS, float64(recv[i].Sub(at))/1e6)
		r.DetectUS = append(r.DetectUS, float64(detected[i].Sub(at))/1e3)
		r.DeliverUS = append(r.DeliverUS, float64(recv[i].Sub(detected[i]))/1e3)
	}
	return r, nil
}
