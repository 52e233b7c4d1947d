package saql

// The decode-time prefilter end to end: an ndjson source running into an
// engine skips the lines no registered query can match, and everything the
// engine reports must be what it reports when every line is built, and what
// the serial engine reports over the decoded stream.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"saql/internal/conformance"
	"saql/internal/event"
)

// ndjsonEntity and ndjsonEvent are the native schema as a test renders it.
type ndjsonEntity struct {
	Type    string `json:"type,omitempty"`
	Exe     string `json:"exe,omitempty"`
	PID     int32  `json:"pid,omitempty"`
	User    string `json:"user,omitempty"`
	CmdLine string `json:"cmdline,omitempty"`
	Path    string `json:"path,omitempty"`
	SrcIP   string `json:"src_ip,omitempty"`
	SrcPort int32  `json:"src_port,omitempty"`
	DstIP   string `json:"dst_ip,omitempty"`
	DstPort int32  `json:"dst_port,omitempty"`
	Proto   string `json:"proto,omitempty"`
}

type ndjsonEvent struct {
	TS      string       `json:"ts"`
	Agent   string       `json:"agent,omitempty"`
	Subject ndjsonEntity `json:"subject"`
	Op      string       `json:"op"`
	Object  ndjsonEntity `json:"object"`
	Amount  float64      `json:"amount"`
}

func ndjsonEntityOf(e *event.Entity) ndjsonEntity {
	return ndjsonEntity{
		Type: e.Type.String(), Exe: e.ExeName, PID: e.PID, User: e.User, CmdLine: e.CmdLine, Path: e.Path,
		SrcIP: e.SrcIP, SrcPort: e.SrcPort, DstIP: e.DstIP, DstPort: e.DstPort, Proto: e.Protocol,
	}
}

// renderNDJSON writes evs as ndjson lines, in order. An event's ID is not
// part of the schema, so the decoded events carry none.
func renderNDJSON(t *testing.T, evs []*Event) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, ev := range evs {
		err := enc.Encode(ndjsonEvent{
			TS: ev.Time.Format(time.RFC3339Nano), Agent: ev.AgentID,
			Subject: ndjsonEntityOf(&ev.Subject), Op: ev.Op.String(), Object: ndjsonEntityOf(&ev.Object),
			Amount: ev.Amount,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// prefilterStream is one stream of the prefilter's end-to-end tests: its
// lines and the queries registered before it flows, pinned and fleet-wide.
type prefilterStream struct {
	name    string
	lines   []byte
	queries [][2]string // name, source
}

func prefilterStreams(t *testing.T) []prefilterStream {
	t.Helper()
	disorder := conformance.Disorder{Seed: 5, Start: demoStart, Events: 2400, Window: time.Second, Late: 3, Jump: 4 * time.Second}.Stream()
	attackEvs, scenario := buildDemoStream(t, 6*time.Minute, 2*time.Minute)
	attackQs := [][2]string{{"fleet-rename", `proc p rename file f return p, f`}}
	for _, q := range scenario.DemoQueries(30*time.Second, 3) {
		attackQs = append(attackQs, [2]string{q.Name, q.SAQL})
	}
	return []prefilterStream{
		{name: "disorder", lines: renderNDJSON(t, disorder), queries: [][2]string{
			{"count-h1", `agentid = "HOST-1"
proc p write ip i as e #time(1 s)
state ss { n := count(e) } group by p
alert ss.n > 2
return p, ss.n`},
			{"count-h1-2s", `agentid = "host-1"
proc p write ip i as e #time(2 s)
state ss { n := count(e) } group by p
alert ss.n > 4
return p, ss.n`},
			{"big-h3", `host = "host-3"
proc p write ip i as e
alert e.amount > 50000
return p, i, e.amount`},
			{"fleet-delete", `proc p delete file f return p, f`},
		}},
		{name: "attack", lines: renderNDJSON(t, attackEvs), queries: attackQs},
	}
}

// prefilterRun is what one run of a stream reports.
type prefilterRun struct {
	alerts []string
	stats  map[string]QueryStats
	events int64
	src    SourceStats
}

func (s prefilterStream) names() []string {
	names := make([]string, len(s.queries))
	for i, q := range s.queries {
		names[i] = q[0]
	}
	return names
}

func (s prefilterStream) register(t *testing.T, p *probeEngine) {
	t.Helper()
	for _, q := range s.queries {
		if _, err := p.eng.Register(q[0], q[1]); err != nil {
			t.Fatalf("register %s: %v", q[0], err)
		}
	}
}

// capture runs the stream's lines through a source into a plain submitter,
// which no prefilter reaches, and returns the events in the order they were
// submitted and the source's counters.
func capture(t *testing.T, lines []byte, opts []SourceOption) ([]*Event, SourceStats) {
	t.Helper()
	src, err := NewSource(bytes.NewReader(lines), opts...)
	if err != nil {
		t.Fatal(err)
	}
	var evs []*Event
	if err := src.Run(context.Background(), submitFunc(func(batch []*event.Event) error {
		evs = append(evs, batch...)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	return evs, src.Stats()
}

// runStarted runs the stream's lines through a source into an engine started
// with shards, its prefilter forced to admit every line when admitAll is set.
func (s prefilterStream) runStarted(t *testing.T, shards int, admitAll bool, opts []SourceOption) prefilterRun {
	t.Helper()
	p := newProbe(t, shards)
	s.register(t, p)
	p.eng.testAdmitAll = admitAll
	p.start()
	src, err := NewSource(bytes.NewReader(s.lines), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Run(context.Background(), p.eng); err != nil {
		t.Fatal(err)
	}
	events := p.eng.Stats().Events
	alerts, stats := p.finish(s.names()...)
	return prefilterRun{alerts: alerts, stats: stats, events: events, src: src.Stats()}
}

// runSerial is the serial engine over evs.
func (s prefilterStream) runSerial(t *testing.T, evs []*Event) prefilterRun {
	t.Helper()
	p := newProbe(t, 0)
	s.register(t, p)
	p.feed(evs)
	events := p.eng.Stats().Events
	alerts, stats := p.finish(s.names()...)
	return prefilterRun{alerts: alerts, stats: stats, events: events}
}

// sameSourceStats compares two sources' counters but for Skipped and the
// symbol counters, which depend on which lines were built.
func sameSourceStats(t *testing.T, label string, got, want SourceStats) {
	t.Helper()
	got.Skipped, want.Skipped = 0, 0
	got.SymbolHits, got.SymbolMisses, got.SymbolEntries = 0, 0, 0
	want.SymbolHits, want.SymbolMisses, want.SymbolEntries = 0, 0, 0
	if got != want {
		t.Errorf("%s: source stats %+v, want %+v", label, got, want)
	}
}

// TestPrefilteredSourceMatchesSerial: a disordered stream and the APT
// scenario, as ndjson lines through Source.Run into engines of 1, 2 and 8
// shards, at batch sizes 1, 7 and 256, with and without WithStrictOrder. The
// prefiltered run must raise the alerts, report the query stats, the
// engine's event count and the source counters (but Skipped and the symbol
// counters) of the same run with its prefilter forced to admit every line,
// and of the serial engine over the decoded events in submission order
// (every query stats field but StateBytes, which grows by a header per extra
// replica).
func TestPrefilteredSourceMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, s := range prefilterStreams(t) {
		t.Run(s.name, func(t *testing.T) {
			for _, batch := range []int{1, 7, 256} {
				for _, strict := range []bool{false, true} {
					opts := []SourceOption{WithBatchSize(batch)}
					if strict {
						opts = append(opts, WithStrictOrder())
					}
					evs, capSrc := capture(t, s.lines, opts)
					serial := s.runSerial(t, evs)
					if len(serial.alerts) == 0 {
						t.Fatal("the serial run raised no alerts")
					}
					for _, shards := range []int{1, 2, 8} {
						label := fmt.Sprintf("batch=%d strict=%v shards=%d", batch, strict, shards)
						all := s.runStarted(t, shards, true, opts)
						got := s.runStarted(t, shards, false, opts)
						if got.src.Skipped == 0 || all.src.Skipped != 0 {
							t.Fatalf("%s: skipped %d lines prefiltered, %d admitting all; want some and none", label, got.src.Skipped, all.src.Skipped)
						}
						compareRuns(t, label+" prefiltered", "admit-all", got.alerts, all.alerts, got.stats, all.stats)
						for name, st := range all.stats {
							if got.stats[name].StateBytes != st.StateBytes {
								t.Errorf("%s: %s StateBytes %d prefiltered, %d admitting all", label, name, got.stats[name].StateBytes, st.StateBytes)
							}
						}
						compareRuns(t, label+" prefiltered", "serial", got.alerts, serial.alerts, got.stats, serial.stats)
						if got.events != all.events || got.events != serial.events {
							t.Errorf("%s: Stats.Events %d prefiltered, %d admitting all, %d serial", label, got.events, all.events, serial.events)
						}
						sameSourceStats(t, label+" prefiltered", got.src, all.src)
						sameSourceStats(t, label+" prefiltered", got.src, capSrc)
					}
				}
			}
		})
	}
}

// oneLineReader hands out at most one line per Read, so a source with one
// decoder decodes a line, and adds it to the batcher, before it reads the
// next.
type oneLineReader struct{ data []byte }

func (r *oneLineReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := bytes.IndexByte(r.data, '\n') + 1
	if n == 0 {
		n = len(r.data)
	}
	n = copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// TestPrefilterStaleGeneration: registry changes between a batch's decode
// and its submission — Register of a query that admits lines the table
// skipped, an Update of it, a Remove — make the batch's table stale: it is
// built in full and submitted as events, and the alerts and query stats are
// the serial engine's with each change at the same point of the stream.
// With one decoder reading a line at a time, which table each line was
// decoded under is known, so Skipped must count exactly the lines of the
// batches submitted with skip records.
func TestPrefilterStaleGeneration(t *testing.T) {
	stream := conformance.Disorder{Seed: 9, Start: demoStart, Events: 2400, Window: time.Second, Late: 3, Jump: 4 * time.Second}.Stream()
	lines := renderNDJSON(t, stream)
	base := [][2]string{
		{"h1", `agentid = "host-1"
proc p write ip i as e #time(1 s)
state ss { n := count(e) } group by p
alert ss.n > 2
return p, ss.n`},
	}
	h2 := `agentid = "host-2"
proc p write ip i as e #time(1 s)
state ss { n := count(e) } group by p
alert ss.n > %d
return p, ss.n`
	// The changes, at the skip-carrying submissions that run them.
	changes := []struct {
		at   int
		name string
		do   func(e *Engine) error
	}{
		{3, "register h2", func(e *Engine) error { _, err := e.Register("h2", fmt.Sprintf(h2, 2)); return err }},
		{6, "update h2", func(e *Engine) error {
			h, _ := e.Query("h2")
			return h.Update(fmt.Sprintf(h2, 3))
		}},
		{9, "remove h1", func(e *Engine) error {
			h, _ := e.Query("h1")
			return h.Close()
		}},
	}
	// admitted reports whether a line of host is admitted after the first
	// done changes: host-1 until h1 goes, host-2 once h2 is in.
	admitted := func(done int, host string) bool {
		return host == "host-1" && done < 3 || host == "host-2" && done >= 1
	}
	opts := []SourceOption{WithBatchSize(16)}
	evs, _ := capture(t, lines, opts)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			p := newProbe(t, 2)
			for _, q := range base {
				if _, err := p.eng.Register(q[0], q[1]); err != nil {
					t.Fatal(err)
				}
			}
			calls, done := 0, 0
			var points []int64 // accepted events when each change ran
			p.eng.testBeforeSkipping = func() {
				if calls++; done < len(changes) && calls == changes[done].at {
					points = append(points, p.eng.Stats().Events)
					if err := changes[done].do(p.eng); err != nil {
						t.Errorf("%s: %v", changes[done].name, err)
					}
					done++
				}
			}
			p.start()
			src, err := NewSource(&oneLineReader{data: lines}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := src.Run(context.Background(), p.eng); err != nil {
				t.Fatal(err)
			}
			if done != len(changes) {
				t.Fatalf("%d of %d changes ran", done, len(changes))
			}
			got, gotStats := p.finish("h2")
			st := src.Stats()

			// The serial engine over the submitted stream, each change after
			// the events accepted before it.
			ref := newProbe(t, 0)
			for _, q := range base {
				if _, err := ref.eng.Register(q[0], q[1]); err != nil {
					t.Fatal(err)
				}
			}
			at := int64(0)
			for k, pt := range points {
				ref.feed(evs[at:pt])
				at = pt
				if err := changes[k].do(ref.eng); err != nil {
					t.Fatal(err)
				}
			}
			ref.feed(evs[at:])
			want, wantStats := ref.finish("h2")
			compareRuns(t, "prefiltered", "serial", got, want, gotStats, wantStats)
			if len(want) == 0 {
				t.Fatal("the serial run raised no alerts")
			}
			if st.Skipped == 0 {
				t.Fatal("no line was skipped")
			}
			if workers > 1 {
				return
			}
			// One decoder reading a line at a time: batch j's lines are
			// decoded after batch j-1 is submitted, under the table the
			// changes before then left, and the batch at a change is stale.
			var skipped int64
			k := 0
			for lo := 0; lo < len(evs); lo += 16 {
				batch := evs[lo:min(lo+16, len(evs))]
				n := int64(0)
				for _, ev := range batch {
					if !admitted(k, ev.AgentID) {
						n++
					}
				}
				if k < len(points) && points[k] == int64(lo) {
					k++ // stale: built in full
					continue
				}
				skipped += n
			}
			if st.Skipped != skipped {
				t.Fatalf("Skipped = %d, want %d: the lines of the batches submitted with skip records", st.Skipped, skipped)
			}
		})
	}
}
