package event

import (
	"testing"
	"time"
)

func TestParseEntityType(t *testing.T) {
	cases := map[string]EntityType{
		"proc": EntityProcess, "process": EntityProcess,
		"file": EntityFile,
		"ip":   EntityNetConn, "conn": EntityNetConn,
	}
	for s, want := range cases {
		got, err := ParseEntityType(s)
		if err != nil || got != want {
			t.Errorf("ParseEntityType(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseEntityType("socket"); err == nil {
		t.Error("unknown entity type should error")
	}
}

func TestParseOp(t *testing.T) {
	cases := map[string]Op{
		"read": OpRead, "recv": OpRead,
		"write": OpWrite, "send": OpWrite,
		"start": OpStart, "fork": OpStart,
		"execute": OpExecute, "exec": OpExecute,
		"end": OpEnd, "exit": OpEnd,
		"delete": OpDelete, "rename": OpRename,
		"connect": OpConnect, "accept": OpAccept,
	}
	for s, want := range cases {
		got, err := ParseOp(s)
		if err != nil || got != want {
			t.Errorf("ParseOp(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseOp("mmap"); err == nil {
		t.Error("unknown op should error")
	}
}

func TestOpRoundTrip(t *testing.T) {
	for op := OpRead; op <= OpAccept; op++ {
		parsed, err := ParseOp(op.String())
		if err != nil {
			t.Errorf("ParseOp(%q): %v", op.String(), err)
			continue
		}
		if parsed != op {
			t.Errorf("round trip %v -> %q -> %v", op, op.String(), parsed)
		}
	}
}

func TestDefaultAttr(t *testing.T) {
	p := Process("cmd.exe", 1)
	f := File("/tmp/x")
	n := NetConn("1.1.1.1", 1, "2.2.2.2", 2)
	if p.DefaultAttr() != "cmd.exe" {
		t.Errorf("proc default = %q", p.DefaultAttr())
	}
	if f.DefaultAttr() != "/tmp/x" {
		t.Errorf("file default = %q", f.DefaultAttr())
	}
	if n.DefaultAttr() != "2.2.2.2" {
		t.Errorf("conn default = %q", n.DefaultAttr())
	}
}

func TestEntityKeyUniqueness(t *testing.T) {
	a := Process("x.exe", 1)
	b := Process("x.exe", 2)
	c := Process("y.exe", 1)
	if a.Key() == b.Key() || a.Key() == c.Key() {
		t.Error("distinct processes must have distinct keys")
	}
	f1, f2 := File("/a"), File("/b")
	if f1.Key() == f2.Key() {
		t.Error("distinct files must have distinct keys")
	}
	// Same identity yields same key.
	a2 := Process("x.exe", 1)
	if a.Key() != a2.Key() {
		t.Error("identical entities must share a key")
	}
}

func TestEventType(t *testing.T) {
	ts := time.Now()
	fe := Event{Time: ts, Subject: Process("a", 1), Op: OpWrite, Object: File("/f")}
	pe := Event{Time: ts, Subject: Process("a", 1), Op: OpStart, Object: Process("b", 2)}
	ne := Event{Time: ts, Subject: Process("a", 1), Op: OpWrite, Object: NetConn("1.1.1.1", 1, "2.2.2.2", 2)}
	if fe.EventType() != TypeFile {
		t.Errorf("file event type = %v", fe.EventType())
	}
	if pe.EventType() != TypeProcess {
		t.Errorf("process event type = %v", pe.EventType())
	}
	if ne.EventType() != TypeNetwork {
		t.Errorf("network event type = %v", ne.EventType())
	}
}

func TestStringRenderings(t *testing.T) {
	p := Process("cmd.exe", 42)
	if got := p.String(); got != "proc(cmd.exe pid=42)" {
		t.Errorf("proc string = %q", got)
	}
	ev := Event{Time: time.Unix(0, 0).UTC(), AgentID: "h1", Subject: p, Op: OpStart, Object: Process("osql.exe", 43)}
	if s := ev.String(); s == "" {
		t.Error("event string should not be empty")
	}
}
