package baseline

import (
	"testing"
	"time"

	"saql/internal/engine"
	"saql/internal/event"
	"saql/internal/scheduler"
	"saql/internal/value"
)

var base = time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)

func TestMaterializeCoversAttributes(t *testing.T) {
	ev := &event.Event{
		ID: 7, Time: base, AgentID: "db-1",
		Subject: event.Process("sqlservr.exe", 1680),
		Op:      event.OpWrite,
		Object:  event.NetConn("10.0.0.2", 1433, "10.0.1.5", 49000),
		Amount:  1234,
	}
	tup := Materialize(ev)
	checks := map[string]value.Value{
		"agentid":       value.String("db-1"),
		"optype":        value.String("write"),
		"amount":        value.Float(1234),
		"subj_exe_name": value.String("sqlservr.exe"),
		"obj_dstip":     value.String("10.0.1.5"),
	}
	for k, want := range checks {
		if got, ok := tup[k]; !ok || !got.Equal(want) {
			t.Errorf("tuple[%q] = %v, want %v", k, got, want)
		}
	}

	file := Materialize(&event.Event{Subject: event.Process("p", 1), Op: event.OpWrite, Object: event.File("/x")})
	if file["obj_path"].Str() != "/x" {
		t.Error("file tuple missing obj_path")
	}
	proc := Materialize(&event.Event{Subject: event.Process("p", 1), Op: event.OpStart, Object: event.Process("c", 2)})
	if proc["obj_exe_name"].Str() != "c" {
		t.Error("proc tuple missing obj_exe_name")
	}
}

func TestBaselineMatchesEngineAlerts(t *testing.T) {
	const src = `proc p["%cmd.exe"] start proc q2 as e return p, q2`
	direct, err := engine.Compile("direct", src, engine.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	viaBase, err := engine.Compile("via-baseline", src, engine.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := New(nil)
	b.Add(viaBase)
	serial := scheduler.New(nil, false)
	if err := serial.Add(direct); err != nil {
		t.Fatal(err)
	}

	var nDirect, nBase int
	for i := 0; i < 10; i++ {
		parent := "cmd.exe"
		if i%2 == 0 {
			parent = "explorer.exe"
		}
		ev := &event.Event{
			Time:    base.Add(time.Duration(i) * time.Second),
			AgentID: "h",
			Subject: event.Process(parent, int32(i)),
			Op:      event.OpStart,
			Object:  event.Process("child.exe", int32(100+i)),
		}
		nDirect += len(serial.Process(ev))
		nBase += len(b.Process(ev))
	}
	if nDirect != nBase {
		t.Errorf("baseline alerts = %d, direct = %d", nBase, nDirect)
	}
	if nBase != 5 {
		t.Errorf("alerts = %d, want 5", nBase)
	}
}

func TestCopyAccounting(t *testing.T) {
	b := New(nil)
	for i := 0; i < 4; i++ {
		q, err := engine.Compile(
			string(rune('a'+i)),
			`proc p start proc q2 as e return p`,
			engine.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b.Add(q)
	}
	ev := &event.Event{Time: base, Subject: event.Process("x", 1), Op: event.OpStart, Object: event.Process("y", 2)}
	for i := 0; i < 10; i++ {
		b.Process(ev)
	}
	if b.Events != 10 {
		t.Errorf("events = %d", b.Events)
	}
	if b.TupleCopies != 40 {
		t.Errorf("tuple copies = %d, want queries×events = 40", b.TupleCopies)
	}
	if b.QueryCount() != 4 {
		t.Errorf("queries = %d", b.QueryCount())
	}
}

func TestFlush(t *testing.T) {
	q, err := engine.Compile("stateful", `
proc p write ip i as e #time(1 min)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 10
return p, ss.amt`, engine.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := New(nil)
	b.Add(q)
	ev := &event.Event{
		Time: base, AgentID: "h",
		Subject: event.Process("x", 1), Op: event.OpWrite,
		Object: event.NetConn("1.1.1.1", 1, "2.2.2.2", 2), Amount: 100,
	}
	if got := b.Process(ev); len(got) != 0 {
		t.Errorf("window still open, alerts = %d", len(got))
	}
	if got := b.Flush(); len(got) != 1 {
		t.Errorf("flush alerts = %d, want 1", len(got))
	}
}
