package expr

// The oracle's attribute table, pinned value by value (these assertions
// lived in internal/event while the table did).

import (
	"testing"
	"time"

	"saql/internal/event"
	"saql/internal/value"
)

func TestEntityAttrProcess(t *testing.T) {
	p := event.Process("osql.exe", 1234)
	p.User = "dbadmin"
	p.CmdLine = "osql.exe -E"

	if v, ok := EntityAttr(&p, "exe_name"); !ok || v.Str() != "osql.exe" {
		t.Errorf("exe_name = %v, %v", v, ok)
	}
	if v, ok := EntityAttr(&p, "pid"); !ok || v.IntVal() != 1234 {
		t.Errorf("pid = %v, %v", v, ok)
	}
	if v, ok := EntityAttr(&p, "user"); !ok || v.Str() != "dbadmin" {
		t.Errorf("user = %v, %v", v, ok)
	}
	if _, ok := EntityAttr(&p, "dstip"); ok {
		t.Error("process should not have dstip")
	}
}

func TestEntityAttrFile(t *testing.T) {
	f := event.File(`C:\db\backup1.dmp`)
	if v, ok := EntityAttr(&f, "name"); !ok || v.Str() != `C:\db\backup1.dmp` {
		t.Errorf("name = %v, %v", v, ok)
	}
	if v, ok := EntityAttr(&f, "basename"); !ok || v.Str() != "backup1.dmp" {
		t.Errorf("basename = %v, %v", v, ok)
	}
	u := event.File("/var/log/syslog")
	if v, ok := EntityAttr(&u, "basename"); !ok || v.Str() != "syslog" {
		t.Errorf("unix basename = %v, %v", v, ok)
	}
}

func TestEntityAttrNetConn(t *testing.T) {
	n := event.NetConn("10.0.0.5", 49152, "172.16.0.129", 443)
	if v, ok := EntityAttr(&n, "dstip"); !ok || v.Str() != "172.16.0.129" {
		t.Errorf("dstip = %v, %v", v, ok)
	}
	if v, ok := EntityAttr(&n, "srcip"); !ok || v.Str() != "10.0.0.5" {
		t.Errorf("srcip = %v, %v", v, ok)
	}
	if v, ok := EntityAttr(&n, "dport"); !ok || v.IntVal() != 443 {
		t.Errorf("dport = %v, %v", v, ok)
	}
	if v, ok := EntityAttr(&n, "protocol"); !ok || v.Str() != "tcp" {
		t.Errorf("protocol = %v, %v", v, ok)
	}
}

func TestEventAttr(t *testing.T) {
	ev := event.Event{
		ID:      7,
		Time:    time.Unix(100, 0),
		AgentID: "db-server-1",
		Subject: event.Process("sqlservr.exe", 99),
		Op:      event.OpWrite,
		Object:  event.NetConn("10.0.0.2", 5000, "172.16.0.129", 8080),
		Amount:  1 << 20,
	}
	if v, ok := EventAttr(&ev, "amount"); !ok || v.FloatVal() != 1<<20 {
		t.Errorf("amount = %v, %v", v, ok)
	}
	if v, ok := EventAttr(&ev, "agentid"); !ok || v.Str() != "db-server-1" {
		t.Errorf("agentid = %v, %v", v, ok)
	}
	if v, ok := EventAttr(&ev, "time"); !ok || v.IntVal() != time.Unix(100, 0).UnixNano() {
		t.Errorf("time = %v, %v", v, ok)
	}
	if v, ok := EventAttr(&ev, "optype"); !ok || v.Str() != "write" {
		t.Errorf("optype = %v, %v", v, ok)
	}
	if _, ok := EventAttr(&ev, "nope"); ok {
		t.Error("unknown event attribute should fail")
	}
	if v, _ := EventAttr(&ev, "amount"); v.Kind() != value.KindFloat {
		t.Error("amount should be a float value")
	}
}
