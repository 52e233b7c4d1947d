package codec

import (
	"strings"
	"testing"
	"time"

	"saql/internal/event"
)

func decodeAll(t *testing.T, format string, opts Options, lines string) ([]*event.Event, []error) {
	t.Helper()
	dec, err := New(format, opts)
	if err != nil {
		t.Fatalf("New(%q): %v", format, err)
	}
	var evs []*event.Event
	var errs []error
	for _, line := range strings.Split(lines, "\n") {
		out, err := dec.Decode([]byte(line))
		if err != nil {
			errs = append(errs, err)
		}
		evs = append(evs, out...)
	}
	evs = append(evs, dec.Flush()...)
	return evs, errs
}

func TestRegistryFormats(t *testing.T) {
	have := Formats()
	want := []string{"auditd", "ndjson", "sysmon"}
	if len(have) != len(want) {
		t.Fatalf("Formats() = %v, want %v", have, want)
	}
	for i := range want {
		if have[i] != want[i] {
			t.Fatalf("Formats() = %v, want %v", have, want)
		}
	}
	if _, err := New("syslog", Options{}); err == nil {
		t.Fatal("New(syslog) should fail")
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	lines := `
{"ts":"2020-02-27T09:00:00Z","agent":"db-1","subject":{"exe":"cmd.exe","pid":4120},"op":"start","object":{"type":"proc","exe":"osql.exe","pid":4121}}
{"ts":1582794001.5,"host":"db-1","subject":{"exe":"sqlservr.exe","pid":1680,"user":"svc"},"op":"write","object":{"type":"file","path":"C:\\db\\backup1.dmp"},"amount":52428800}
{"ts":"2020-02-27T09:00:03+00:00","subject":{"exe":"sbblv.exe","pid":5200},"op":"send","object":{"type":"ip","src_ip":"10.10.0.5","src_port":49233,"dst_ip":"172.16.0.129","dst_port":443,"proto":"udp"},"amount":1500}`
	evs, errs := decodeAll(t, "ndjson", Options{DefaultAgent: "fallback-host"}, lines)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(evs) != 3 {
		t.Fatalf("decoded %d events, want 3", len(evs))
	}

	if got := evs[0].String(); !strings.Contains(got, "proc(cmd.exe pid=4120) start proc(osql.exe pid=4121)") {
		t.Errorf("event 0 = %s", got)
	}
	if evs[0].AgentID != "db-1" {
		t.Errorf("agent = %q", evs[0].AgentID)
	}
	want := time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)
	if !evs[0].Time.Equal(want) {
		t.Errorf("time = %v, want %v", evs[0].Time, want)
	}

	// Unix-seconds timestamp with fraction, "host" alias.
	if !evs[1].Time.Equal(want.Add(1500 * time.Millisecond)) {
		t.Errorf("unix ts = %v", evs[1].Time)
	}
	if evs[1].Object.Type != event.EntityFile || evs[1].Object.Path != `C:\db\backup1.dmp` {
		t.Errorf("file object = %+v", evs[1].Object)
	}
	if evs[1].Amount != 52428800 {
		t.Errorf("amount = %v", evs[1].Amount)
	}
	if evs[1].Subject.User != "svc" {
		t.Errorf("user = %q", evs[1].Subject.User)
	}

	// Missing agent falls back to the option; "send" aliases write.
	if evs[2].AgentID != "fallback-host" {
		t.Errorf("fallback agent = %q", evs[2].AgentID)
	}
	if evs[2].Op != event.OpWrite {
		t.Errorf("op = %v", evs[2].Op)
	}
	conn := evs[2].Object
	if conn.DstIP != "172.16.0.129" || conn.DstPort != 443 || conn.SrcPort != 49233 || conn.Protocol != "udp" {
		t.Errorf("conn = %+v", conn)
	}

	// Every accepted line of the edge table decodes to one event, and the
	// ones whose value is the point carry it.
	checks := map[string]func(*event.Event) bool{
		"escapes in exe and path": func(e *event.Event) bool {
			return e.Subject.ExeName == "a\"b\\c/d\b\f\n\r\t.exe" && e.Object.Path == `C:\db\é世.dmp`
		},
		"surrogate pair":      func(e *event.Event) bool { return e.Subject.ExeName == "😀.exe" && e.Object.Path == "/😀" },
		"lone high surrogate": func(e *event.Event) bool { return e.Subject.ExeName == "\ufffdx" },
		"invalid UTF-8": func(e *event.Event) bool {
			return e.AgentID == "h\ufffd\ufffd" && e.Subject.ExeName == "a\ufffd" && e.Object.Path == "/\ufffd\ufffd\ufffd"
		},
		"case-variant keys": func(e *event.Event) bool { return e.AgentID == "H" && e.Subject.PID == 3 && e.Amount == 2 },
		"long-s folds onto s": func(e *event.Event) bool {
			return e.Subject.User == "u" && e.Object.DstIP == "1.2.3.4" && e.Object.SrcPort == 9
		},
		"duplicate keys: last wins": func(e *event.Event) bool {
			return e.AgentID == "b" && e.Op == event.OpRead && e.Amount == 2 && e.Time.Equal(time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC))
		},
		"repeated subject merges": func(e *event.Event) bool {
			return e.Subject.ExeName == "a" && e.Subject.PID == 2 && e.Subject.User == "u"
		},
		"null then subject":          func(e *event.Event) bool { return e.Subject.ExeName == "b" && e.Subject.User == "" },
		"null scalars are untouched": func(e *event.Event) bool { return e.AgentID == "h" && e.Subject.PID == 4 && e.Amount == 3 },
		"empty agent falls to host":  func(e *event.Event) bool { return e.AgentID == "h1" },
		"ts 12-digit fraction":       func(e *event.Event) bool { return e.Time.Nanosecond() == 123456789 },
		"ts offset form":             func(e *event.Event) bool { return e.Time.Equal(time.Date(2020, 2, 27, 3, 30, 3, 0, time.UTC)) },
		"ip aliases and default proto": func(e *event.Event) bool {
			return e.Object.Type == event.EntityNetConn && e.Object.Protocol == "tcp" && e.Op == event.OpRead
		},
	}
	seen := 0
	for _, c := range ndjsonEdgeLines() {
		if !c.ok {
			continue
		}
		evs, errs := decodeAll(t, "ndjson", Options{DefaultAgent: "fallback-host"}, strings.ReplaceAll(c.line, "\n", " "))
		if len(errs) != 0 || len(evs) != 1 {
			t.Errorf("%s: %d events, errors %v", c.name, len(evs), errs)
			continue
		}
		if check := checks[c.name]; check != nil {
			if seen++; !check(evs[0]) {
				t.Errorf("%s: decoded %+v", c.name, *evs[0])
			}
		}
	}
	if seen != len(checks) {
		t.Errorf("checked %d named edge lines, want %d (a table entry was renamed?)", seen, len(checks))
	}
}

// TestNDJSONDecodeOwnership pins the two halves of Decode's contract: the
// returned slice is the decoder's and is overwritten by the next call, while
// the events — and every string in them — are the caller's and alias neither
// the input line nor the decoder's scratch.
func TestNDJSONDecodeOwnership(t *testing.T) {
	dec, _ := New("ndjson", Options{})
	line := []byte(`{"ts":5,"agent":"h-one","subject":{"exe":"first.exe","pid":1,"cmdline":"a \"b\""},"op":"read","object":{"type":"file","path":"/p\u0031"}}`)
	out1, err := dec.Decode(line)
	if err != nil || len(out1) != 1 {
		t.Fatalf("Decode: %d events, err %v", len(out1), err)
	}
	first := out1[0]
	for i := range line {
		line[i] = 'X'
	}
	out2, err := dec.Decode([]byte(`{"ts":6,"agent":"h-two","subject":{"exe":"second.exe","pid":2,"cmdline":"c \"d\""},"op":"read","object":{"type":"file","path":"/q\u0032"}}`))
	if err != nil || len(out2) != 1 {
		t.Fatalf("Decode: %d events, err %v", len(out2), err)
	}
	if out1[0] != out2[0] {
		t.Errorf("the returned slice is documented to be reused across calls")
	}
	if first == out2[0] {
		t.Fatalf("events were recycled")
	}
	if first.AgentID != "h-one" || first.Subject.ExeName != "first.exe" || first.Subject.CmdLine != `a "b"` || first.Object.Path != "/p1" {
		t.Errorf("first event changed under a later Decode or a reused input buffer: %+v", *first)
	}
}

func TestNDJSONMalformedLines(t *testing.T) {
	cases := []string{
		`{not json`,
		`[1,2,3]`,
		`{"ts":"2020-02-27T09:00:00Z","op":"read","object":{"type":"file","path":"/x"}}`,                                     // no subject
		`{"ts":"2020-02-27T09:00:00Z","subject":{"exe":"a","pid":1},"op":"read"}`,                                            // no object
		`{"ts":"2020-02-27T09:00:00Z","subject":{"exe":"a","pid":1},"op":"frobnicate","object":{"type":"file","path":"/x"}}`, // bad op
		`{"ts":"2020-02-27T09:00:00Z","subject":{"exe":"a","pid":1},"op":"read","object":{"type":"widget","path":"/x"}}`,     // bad object type
		`{"ts":"not-a-time","subject":{"exe":"a","pid":1},"op":"read","object":{"type":"file","path":"/x"}}`,                 // bad ts
		`{"subject":{"exe":"a","pid":1},"op":"read","object":{"type":"file","path":"/x"}}`,                                   // missing ts
		`{"ts":"2020-02-27T09:00:00Z","subject":{"pid":1},"op":"read","object":{"type":"file","path":"/x"}}`,                 // no exe
		`{"ts":"2020-02-27T09:00:00Z","subject":{"exe":"a","pid":1},"op":"connect","object":{"type":"ip"}}`,                  // ip without addresses
	}
	dec, _ := New("ndjson", Options{})
	for _, line := range cases {
		evs, err := dec.Decode([]byte(line))
		if err == nil {
			t.Errorf("Decode(%q) should fail, got %d events", line, len(evs))
		}
		if len(evs) != 0 {
			t.Errorf("Decode(%q) emitted events alongside error", line)
		}
	}
	for _, c := range ndjsonEdgeLines() {
		if c.ok {
			continue
		}
		evs, err := dec.Decode([]byte(c.line))
		if err == nil || len(evs) != 0 {
			t.Errorf("%s: Decode(%q) = %d events, err %v; want an error and none", c.name, c.line, len(evs), err)
		}
	}
	// The decoder stays usable after errors; blank lines are skipped.
	for _, line := range []string{"", "   ", "\t"} {
		if evs, err := dec.Decode([]byte(line)); err != nil || len(evs) != 0 {
			t.Errorf("blank line: evs=%d err=%v", len(evs), err)
		}
	}
	if evs, err := dec.Decode([]byte(`{"ts":1,"subject":{"exe":"a","pid":1},"op":"read","object":{"type":"file","path":"/x"},"amount":3}`)); err != nil || len(evs) != 1 {
		t.Fatalf("decoder unusable after errors: evs=%d err=%v", len(evs), err)
	}
}

// benchLines is one line per object kind, shaped like a collector's output:
// every hot attribute repeats, path and cmdline do not. The last is shaped
// like the benchmark's corpus: a 17-significant-digit amount (no fast path
// in ParseFloat) and an escaped Windows path.
var benchLines = [][]byte{
	[]byte(`{"ts":"2020-02-27T09:00:00.123456789Z","agent":"ws-07","subject":{"exe":"explorer.exe","pid":4120,"user":"alice"},"op":"start","object":{"type":"proc","exe":"cmd.exe","pid":4121,"cmdline":"cmd /c whoami"},"amount":0}`),
	[]byte(`{"ts":"2020-02-27T09:00:00.223456789Z","agent":"db-01","subject":{"exe":"sqlservr.exe","pid":1680},"op":"write","object":{"type":"file","path":"C:\\db\\backup1.dmp"},"amount":52428800}`),
	[]byte(`{"ts":"2020-02-27T09:00:00.323456789Z","agent":"web-03","subject":{"exe":"nginx","pid":811},"op":"send","object":{"type":"ip","src_ip":"10.10.0.5","src_port":49233,"dst_ip":"172.16.0.129","dst_port":443,"proto":"tcp"},"amount":1500}`),
	[]byte(`{"ts":"2020-02-27T09:00:00.423456789Z","agent":"fs-02","subject":{"exe":"svchost.exe","pid":1044},"op":"read","object":{"type":"file","path":"C:\\Windows\\System32\\winevt\\Logs\\Security.evtx"},"amount":4823.1234567890123}`),
}

// TestNDJSONDecodeAllocsGate holds steady-state decoding to the event itself
// plus its un-interned path or cmdline: at most two allocations per line once
// the intern table has seen the stream's hot values. A line the prefilter
// does not admit is scanned and checked, and costs no allocation at all.
func TestNDJSONDecodeAllocsGate(t *testing.T) {
	dec, err := New("ndjson", Options{Intern: new(InternStats)})
	if err != nil {
		t.Fatal(err)
	}
	decodeAll := func() {
		for _, line := range benchLines {
			if evs, err := dec.Decode(line); err != nil || len(evs) != 1 {
				t.Fatalf("Decode(%s): %d events, err %v", line, len(evs), err)
			}
		}
	}
	decodeAll() // warm the intern table
	perLine := testing.AllocsPerRun(100, decodeAll) / float64(len(benchLines))
	t.Logf("ndjson decode: %.2f allocs/line", perLine)
	if perLine > 2 {
		t.Fatalf("ndjson decode allocates %.2f/line, gate is 2/line", perLine)
	}

	// Skipping is measured over ten runs of 400 lines each: AllocsPerRun
	// reports whole allocations per run, so a stray allocation elsewhere in
	// the process — fewer than one per run — reads as none, while one
	// allocation per skipped line reads as 400.
	sk := dec.(Skipper)
	const runs, rounds = 10, 100
	skipAll := func() {
		for range rounds {
			for _, line := range benchLines {
				if evs, _, skip, err := sk.DecodeSkipping(line, admitNone); err != nil || !skip || len(evs) != 0 {
					t.Fatalf("DecodeSkipping(%s): %d events, skip %v, err %v", line, len(evs), skip, err)
				}
			}
		}
	}
	if n := testing.AllocsPerRun(runs, skipAll); n != 0 {
		t.Fatalf("ndjson skips %d lines with %v allocations per run, gate is 0", rounds*len(benchLines), n)
	}
}

// admitFn is a Prefilter of a function.
type admitFn func(agent []byte, op event.Op) bool

func (f admitFn) Admit(agent []byte, op event.Op) bool { return f(agent, op) }

var (
	admitAll  = admitFn(func([]byte, event.Op) bool { return true })
	admitNone = admitFn(func([]byte, event.Op) bool { return false })
)

var benchSink []*event.Event

// BenchmarkNDJSONDecode decodes the bench lines with no prefilter, under a
// prefilter that admits every line (what a fleet-wide query set costs: it
// must be within noise of none) and under one that admits none (the skipped
// line: scan and check only).
func BenchmarkNDJSONDecode(b *testing.B) {
	for _, bc := range []struct {
		name string
		pf   Prefilter
	}{{"no-table", nil}, {"admit-all", admitAll}, {"admit-none", admitNone}} {
		b.Run(bc.name, func(b *testing.B) {
			dec, err := New("ndjson", Options{Intern: new(InternStats)})
			if err != nil {
				b.Fatal(err)
			}
			sk := dec.(Skipper)
			var size int
			for _, line := range benchLines {
				size += len(line)
			}
			b.SetBytes(int64(size / len(benchLines)))
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				line := benchLines[i%len(benchLines)]
				if bc.pf == nil {
					benchSink, err = dec.Decode(line)
				} else {
					benchSink, _, _, err = sk.DecodeSkipping(line, bc.pf)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestNDJSONSkipSeesFilledAgent: the prefilter is asked about the agentid
// and operation the event would be built with — "agent", else "host", else
// the decoder's default, else the format name — and a line it admits
// decodes to exactly what Decode builds.
func TestNDJSONSkipSeesFilledAgent(t *testing.T) {
	const body = `"subject":{"exe":"a","pid":1},"op":"exec","object":{"type":"file","path":"/x"}`
	lines := []string{
		`{"ts":1,"agent":"Db-1","host":"h",` + body + `}`,
		`{"ts":1,"host":"web-2",` + body + `}`,
		`{"ts":1,"agent":"","host":"",` + body + `}`,
		`{"ts":1,` + body + `}`,
	}
	for _, def := range []string{"", "fallback-host"} {
		full, err := New("ndjson", Options{DefaultAgent: def})
		if err != nil {
			t.Fatal(err)
		}
		skipping, _ := New("ndjson", Options{DefaultAgent: def})
		sk := skipping.(Skipper)
		for _, line := range lines {
			want, err := full.Decode([]byte(line))
			if err != nil || len(want) != 1 {
				t.Fatalf("Decode(%s): %d events, err %v", line, len(want), err)
			}
			var agent string
			var op event.Op
			seen := admitFn(func(a []byte, o event.Op) bool { agent, op = string(a), o; return true })
			got, _, skip, err := sk.DecodeSkipping([]byte(line), seen)
			if err != nil || skip || len(got) != 1 {
				t.Fatalf("DecodeSkipping(%s): %d events, skip %v, err %v", line, len(got), skip, err)
			}
			if agent != want[0].AgentID || op != want[0].Op {
				t.Errorf("default %q, %s: prefilter asked about (%q, %v), the event is (%q, %v)", def, line, agent, op, want[0].AgentID, want[0].Op)
			}
			if *got[0] != *want[0] {
				t.Errorf("default %q, %s: admitted line decodes to %+v, Decode to %+v", def, line, *got[0], *want[0])
			}
		}
	}
}
