package codec

import (
	"strings"
	"testing"

	"saql/internal/event"
)

func TestSysmonEventMapping(t *testing.T) {
	lines := `
{"@timestamp":"2020-02-27T09:00:00.000Z","host":{"name":"ws-victim"},"winlog":{"event_id":1},"process":{"pid":4120,"executable":"C:\\Windows\\System32\\wscript.exe","command_line":"wscript payload.vbs","parent":{"pid":2001,"executable":"C:\\Program Files\\Microsoft Office\\excel.exe"}},"user":{"name":"alice"}}
{"@timestamp":"2020-02-27T09:00:01Z","host":{"name":"ws-victim"},"winlog":{"event_id":3},"process":{"pid":4120,"name":"wscript.exe"},"source":{"ip":"10.0.0.5","port":49233},"destination":{"ip":"172.16.0.129","port":443},"network":{"transport":"tcp","bytes":900}}
{"@timestamp":"2020-02-27T09:00:02Z","host":{"name":"ws-victim"},"winlog":{"event_id":11},"process":{"pid":4120,"name":"wscript.exe"},"file":{"path":"C:\\Users\\alice\\AppData\\sbblv.exe"}}
{"@timestamp":"2020-02-27T09:00:03Z","host":{"name":"ws-victim"},"winlog":{"event_id":23},"process":{"pid":4120,"name":"wscript.exe"},"file":{"path":"C:\\Users\\alice\\invoice.xlsm"}}
{"@timestamp":"2020-02-27T09:00:04Z","host":{"name":"ws-victim"},"winlog":{"event_id":5},"process":{"pid":4120,"name":"wscript.exe"}}`
	evs, errs := decodeAll(t, "sysmon", Options{}, lines)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(evs) != 5 {
		t.Fatalf("decoded %d events, want 5", len(evs))
	}

	// 1: parent starts child; names fall back to executable base names.
	if evs[0].Op != event.OpStart || evs[0].Subject.ExeName != "excel.exe" || evs[0].Object.ExeName != "wscript.exe" {
		t.Errorf("event_id 1 → %s", evs[0])
	}
	if evs[0].Object.PID != 4120 || evs[0].Subject.PID != 2001 {
		t.Errorf("event_id 1 pids: subj=%d obj=%d", evs[0].Subject.PID, evs[0].Object.PID)
	}
	if evs[0].Object.User != "alice" || evs[0].Object.CmdLine != "wscript payload.vbs" {
		t.Errorf("event_id 1 object attrs: %+v", evs[0].Object)
	}

	// 3: connect with full 4-tuple and byte count.
	c := evs[1].Object
	if evs[1].Op != event.OpConnect || c.SrcIP != "10.0.0.5" || c.DstIP != "172.16.0.129" || c.DstPort != 443 {
		t.Errorf("event_id 3 → %s", evs[1])
	}
	if evs[1].Amount != 900 {
		t.Errorf("event_id 3 amount = %v", evs[1].Amount)
	}

	// 11 / 23 / 5.
	if evs[2].Op != event.OpWrite || evs[2].Object.Path != `C:\Users\alice\AppData\sbblv.exe` {
		t.Errorf("event_id 11 → %s", evs[2])
	}
	if evs[3].Op != event.OpDelete {
		t.Errorf("event_id 23 → %s", evs[3])
	}
	if evs[4].Op != event.OpEnd || evs[4].Object.ExeName != "wscript.exe" {
		t.Errorf("event_id 5 → %s", evs[4])
	}
}

func TestSysmonDottedKeysAndActionFallback(t *testing.T) {
	// winlogbeat sometimes flattens to dotted keys and drops the numeric id.
	lines := `
{"@timestamp":"2020-02-27T09:00:00Z","host.name":"ws-2","event.action":"Process Create (rule: ProcessCreate)","process.pid":77,"process.name":"cmd.exe","process.parent.pid":70,"process.parent.name":"explorer.exe"}
{"@timestamp":"2020-02-27T09:00:01Z","host.name":"ws-2","event.code":"3","process.pid":77,"process.name":"cmd.exe","destination.ip":"8.8.8.8","destination.port":"53","network.transport":"udp"}
{"@timestamp":"2020-02-27T09:00:02Z","host.name":"ws-2","event.action":"network-connection","process.pid":77,"process.name":"cmd.exe","destination.ip":"1.1.1.1"}`
	evs, errs := decodeAll(t, "sysmon", Options{}, lines)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(evs) != 3 {
		t.Fatalf("decoded %d events, want 3", len(evs))
	}
	if evs[0].Subject.ExeName != "explorer.exe" || evs[0].Object.ExeName != "cmd.exe" {
		t.Errorf("dotted ProcessCreate → %s", evs[0])
	}
	if evs[1].Object.DstPort != 53 || evs[1].Object.Protocol != "udp" {
		t.Errorf("event.code string → %s", evs[1])
	}
	if evs[2].Op != event.OpConnect || evs[2].Object.DstIP != "1.1.1.1" {
		t.Errorf("action fallback → %s", evs[2])
	}
}

// TestSysmonMixedSpellingsDecodeOneWay: a line that gives fields both nested
// and dotted decodes to the dotted values every time, in either key order —
// Go's map iteration order must not reach the event.
func TestSysmonMixedSpellingsDecodeOneWay(t *testing.T) {
	nested := `"host":{"name":"h1"},"process":{"pid":1,"name":"a.exe"}`
	dotted := `"host.name":"h2","process.pid":2`
	tail := `"@timestamp":"2020-02-27T09:00:00Z","winlog":{"event_id":5}`
	for _, order := range []struct{ name, line string }{
		{"nested-first", "{" + nested + "," + dotted + "," + tail + "}"},
		{"dotted-first", "{" + dotted + "," + nested + "," + tail + "}"},
	} {
		t.Run(order.name, func(t *testing.T) {
			dec, err := New("sysmon", Options{})
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]int{}
			for range 100 {
				evs, err := dec.Decode([]byte(order.line))
				if err != nil || len(evs) != 1 {
					t.Fatalf("decoded %d events, err %v", len(evs), err)
				}
				seen[evs[0].String()]++
			}
			if len(seen) != 1 {
				t.Fatalf("one line decoded %d ways: %v", len(seen), seen)
			}
			for ev := range seen {
				if !strings.Contains(ev, "h2") || !strings.Contains(ev, "pid=2") {
					t.Fatalf("decoded %s; the dotted spelling (host h2, pid 2) must win", ev)
				}
			}
		})
	}
}

func TestSysmonUnmappedAndMalformed(t *testing.T) {
	dec, _ := New("sysmon", Options{})

	// Unmapped event ids and records with no id are skipped silently.
	for _, line := range []string{
		`{"@timestamp":"2020-02-27T09:00:00Z","winlog":{"event_id":7},"process":{"pid":1,"name":"a.exe"}}`, // ImageLoad
		`{"@timestamp":"2020-02-27T09:00:00Z","message":"heartbeat"}`,
		`{}`,
	} {
		evs, err := dec.Decode([]byte(line))
		if err != nil || len(evs) != 0 {
			t.Errorf("Decode(%q) = %d events, err %v; want silent skip", line, len(evs), err)
		}
	}

	// Structurally broken records are errors.
	for _, line := range []string{
		`{"@timestamp":"2020-02-27T09:00:00Z"`,                                                              // truncated JSON
		`{"winlog":{"event_id":1},"process":{"pid":1,"name":"a.exe"},"@timestamp":"bad"}`,                   // bad timestamp
		`{"winlog":{"event_id":1},"process":{"pid":1,"name":"a.exe"}}`,                                      // no timestamp
		`{"@timestamp":"2020-02-27T09:00:00Z","winlog":{"event_id":1},"process":{"pid":4}}`,                 // no process name
		`{"@timestamp":"2020-02-27T09:00:00Z","winlog":{"event_id":1},"process":{"pid":4,"name":"x.exe"}}`,  // no parent
		`{"@timestamp":"2020-02-27T09:00:00Z","winlog":{"event_id":3},"process":{"pid":4,"name":"x.exe"}}`,  // no destination
		`{"@timestamp":"2020-02-27T09:00:00Z","winlog":{"event_id":11},"process":{"pid":4,"name":"x.exe"}}`, // no file path
	} {
		if _, err := dec.Decode([]byte(line)); err == nil {
			t.Errorf("Decode(%q) should fail", line)
		} else if !strings.HasPrefix(err.Error(), "sysmon:") {
			t.Errorf("error %v not attributed to codec", err)
		}
	}
}
