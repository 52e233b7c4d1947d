package sema

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"saql/internal/parser"
)

func check(t *testing.T, src string) (*Info, error) {
	t.Helper()
	q, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse error (test wants sema errors): %v", err)
	}
	return Check(q)
}

func mustCheck(t *testing.T, src string) *Info {
	t.Helper()
	info, err := check(t, src)
	if err != nil {
		t.Fatalf("Check failed: %v", err)
	}
	return info
}

func TestValidPaperQueries(t *testing.T) {
	queries := []string{
		`agentid = xxx
proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
proc p4["%sbblv.exe"] read file f1 as evt3
proc p4 read || write ip i1[dstip="XXX.129"] as evt4
with evt1 -> evt2 -> evt3 -> evt4
return distinct p1, p2, p3, f1, p4, i1`,
		`proc p write ip i as evt #time(10 min)
state[3] ss { avg_amount := avg(evt.amount) } group by p
alert (ss[0].avg_amount > (ss[0].avg_amount + ss[1].avg_amount + ss[2].avg_amount) / 3) && (ss[0].avg_amount > 10000)
return p, ss[0].avg_amount`,
		`proc p1["%apache.exe"] start proc p2 as evt #time(10 s)
state ss { set_proc := set(p2.exe_name) } group by p1
invariant[10][offline] { a := empty_set a = a union ss.set_proc }
alert |ss.set_proc diff a| > 0
return p1, ss.set_proc`,
		`agentid = xxx
proc p["%sqlservr.exe"] read || write ip i as evt #time(10 min)
state ss { amt := sum(evt.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="ed", method="DBSCAN(100000, 5)")
alert cluster.outlier && ss.amt > 1000000
return i.dstip, ss.amt`,
	}
	for i, src := range queries {
		if _, err := check(t, src); err != nil {
			t.Errorf("paper query %d rejected: %v", i+1, err)
		}
	}
}

func TestInfoContents(t *testing.T) {
	info := mustCheck(t, `proc p write ip i as evt #time(10 min)
state[3] ss { avg_amount := avg(evt.amount) } group by p
alert ss[2].avg_amount > 0
return p`)
	if info.EntityVars["p"].String() != "proc" || info.EntityVars["i"].String() != "ip" {
		t.Errorf("entity vars = %v", info.EntityVars)
	}
	if info.Aliases["evt"] != 0 {
		t.Errorf("aliases = %v", info.Aliases)
	}
	if len(info.StateFields) != 1 || info.StateFields[0] != "avg_amount" {
		t.Errorf("state fields = %v", info.StateFields)
	}
	if info.MaxStateIndex != 2 {
		t.Errorf("max state index = %d, want 2", info.MaxStateIndex)
	}
}

func TestClusterMethodParsing(t *testing.T) {
	info := mustCheck(t, `proc p write ip i as evt #time(1 min)
state ss { amt := sum(evt.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="md", method="DBSCAN(500, 4)")
alert cluster.outlier
return i.dstip`)
	if info.ClusterMethod != "dbscan" {
		t.Errorf("method = %q", info.ClusterMethod)
	}
	if len(info.ClusterParams) != 2 || info.ClusterParams[0] != 500 || info.ClusterParams[1] != 4 {
		t.Errorf("params = %v", info.ClusterParams)
	}
}

func TestParseMethod(t *testing.T) {
	m, p, err := ParseMethod("KMEANS(3)")
	if err != nil || m != "kmeans" || len(p) != 1 || p[0] != 3 {
		t.Errorf("KMEANS(3) = %v %v %v", m, p, err)
	}
	bad := []string{"", "DBSCAN", "DBSCAN(1)", "DBSCAN(0, 5)", "DBSCAN(10, 0)", "DBSCAN(10, 2.5)",
		"KMEANS()", "KMEANS(0)", "FOO(1)", "DBSCAN(a, b)", "DBSCAN(1, 2"}
	for _, s := range bad {
		if _, _, err := ParseMethod(s); err == nil {
			t.Errorf("ParseMethod(%q) should fail", s)
		}
	}
}

func TestSemanticErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantErr string
	}{
		{`file f read file g as e return f`, "subject must be a process"},
		{`badattr = 1
proc p start proc q as e return p`, "global constraint"},
		{`proc p[dstip="x"] start proc q as e return p`, "no attribute"},
		{`proc p start file f[pid=1] as e return p`, "no attribute"},
		{`proc p start proc q as e
proc p read file f as e
return p`, "duplicate event alias"},
		{`proc p start proc e as x
proc p read file f as e
return p`, "collides with an entity variable"},
		{`proc p start proc q as e with e -> zz return p`, "undeclared event"},
		{`proc p start proc q as e
proc p read file f as e2
with e -> e2 -> e
return p`, "repeats event"},
		{`proc p start proc q as e state ss {x := count(e)} group by p alert ss.x > 0 return p`, "requires a #time window"},
		{`proc p start proc q as e #time(1 s)
invariant[5][offline] {a := empty_set} alert |a| > 0 return p`, "requires a state block"},
		{`proc p start proc q as e #time(1 s)
cluster(points=all(x), distance="ed", method="DBSCAN(1,2)") alert cluster.outlier return p`, "requires a state block"},
		{`proc p start proc q as e #time(1 s)
proc p read file f as e2
state ss {x := count(e)} group by p
with e -> e2
alert ss.x > 0 return p`, "cannot be combined"},
		{`proc p start proc q as e #time(1 s)
state p {x := count(e)} alert p.x > 0 return q`, "collides with an entity variable"},
		{`proc p start proc q as e #time(1 s)
state ss {x := count(e) x := count(e)} alert ss.x > 0 return p`, "duplicate state field"},
		{`proc p start proc q as e #time(1 s)
state ss {x := e.amount} alert ss.x > 0 return p`, "must be an aggregation call"},
		{`proc p start proc q as e #time(1 s)
state ss {x := bogus(e.amount)} alert ss.x > 0 return p`, "unknown aggregation"},
		{`proc p start proc q as e #time(1 s)
state ss {x := avg(ss.x)} alert ss.x > 0 return p`, "cannot reference"},
		{`proc p start proc q as e #time(1 s)
state ss {x := count(e)} group by zz alert ss.x > 0 return p`, "unknown identifier"},
		{`proc p start proc q as e #time(1 s)
state ss {x := count(e)} group by p
invariant[3][offline] {a := empty_set b = b union ss.x} alert ss.x > 0 return p`, "undeclared variable"},
		{`proc p start proc q as e #time(1 s)
state ss {x := count(e)} group by p
invariant[3][offline] {a := empty_set a := empty_set} alert ss.x > 0 return p`, "initialised twice"},
		{`proc p start proc q as e #time(1 s)
state ss {x := count(e)} group by p
cluster(points=all(ss.y), distance="ed", method="DBSCAN(1,2)") alert cluster.outlier return p`, "unknown state field"},
		{`proc p start proc q as e #time(1 s)
state ss {x := count(e)} group by p
cluster(points=all(ss.x), distance="zz", method="DBSCAN(1,2)") alert cluster.outlier return p`, "unknown cluster distance"},
		{`proc p start proc q as e #time(1 s)
state ss {x := count(e)} group by p
cluster(points=all(ss.x), distance="ed", method="SPECTRAL(2)") alert cluster.outlier return p`, "unknown cluster method"},
		{`proc p start proc q as e alert cluster.outlier return p`, "no cluster specification"},
		{`proc p start proc q as e #time(1 s)
state ss {x := count(e)} group by p
alert ss[1].x > 0 return p`, "out of range"},
		{`proc p start proc q as e #time(1 s)
state ss {x := count(e)} group by p alert ss.y > 0 return p`, "no field"},
		{`proc p start proc q as e alert avg(e.amount) > 0 return p`, "only valid inside a state block"},
		{`proc p start proc q as e return p.dstip`, "no attribute"},
		{`proc p start proc q as e return e.badfield`, "no attribute"},
		{`proc p start proc q as e return zz.f`, "unknown identifier"},
		{`proc p start proc q as e return zz`, "unknown identifier"},
		{`proc p start proc q`, "neither an alert condition nor a return"},
	}
	for _, c := range cases {
		_, err := check(t, c.src)
		if err == nil {
			t.Errorf("Check should fail for:\n%s", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("error %q does not mention %q", err.Error(), c.wantErr)
		}
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := check(t, "proc p start proc q as e\nreturn zz")
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Pos.Line != 2 {
		t.Errorf("error line = %d, want 2", se.Pos.Line)
	}
}

// A query's hits travel as one 64-bit pattern set: MaxPatterns patterns check,
// one more is a positioned semantic error.
func TestMaxPatterns(t *testing.T) {
	query := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "proc p%d read file f%d as e%d\n", i, i, i)
		}
		return sb.String() + "return p0"
	}
	mustCheck(t, query(MaxPatterns))
	_, err := check(t, query(MaxPatterns+1))
	var serr *Error
	if !errors.As(err, &serr) || !strings.Contains(serr.Msg, "at most 63") || serr.Pos.Line != MaxPatterns+1 {
		t.Fatalf("one pattern too many: error %v, want a *sema.Error on line %d naming the bound", err, MaxPatterns+1)
	}
}
