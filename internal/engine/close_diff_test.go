package engine

// The engine-level fence of the close-time evaluator: what a completed match
// or a closed window evaluates through its compiled programs — alert
// conditions, return items and their names, invariant updates, clustering
// points — is held to the environment-based oracle of close_ref_test.go over
// the conformance corpus, the shapes that fail at run time and a set of
// return-heavy shapes.

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"saql/internal/conformance"
)

// closeDiffShapes take the routes at close the corpus does not: `return distinct`
// on both kinds of query, aliased and unaliased items side by side (an
// unaliased p is named "p"), variables a group never bound, a bare event
// alias as a value, conditions and updates that fail or are not boolean, a
// clustering point that is not a number.
var closeDiffShapes = []conformance.Case{
	{Name: "return-distinct-stateful", Src: `proc p write ip i as e #time(30 s)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 1000
return distinct p`},
	{Name: "return-distinct-rule", Src: `proc p execute file f return distinct p, f.basename as file`},
	{Name: "return-aliased-and-not", Src: `proc p write ip i as e #time(30 s)
state[2] ss { amt := sum(e.amount) } group by p
alert ss.amt > 1000
return p, p as process, p.pid, i.dstip as dst, ss.amt as total, ss[1].amt, e.agentid, abs(ss[0].amt - ss[1].amt)`},
	{Name: "return-rule-items", Src: `proc p write ip i as e
alert e.amount > 100000
return p, i, e.amount as bytes, i.dport, e.optype`},
	{Name: "unbound-in-group", Src: `proc p write ip i as e1
proc q read file f as e2 #time(30 s)
state ss { n := count(e1)
           m := sum(e2.amount) } group by p
alert ss.n > 3 || q.pid > 0 || e2.amount > 0
return p, q, f.name, e1.amount, e2.amount, i`},
	{Name: "bare-alias-as-value", Src: `proc p write ip i as e1
proc q read file f as e2 #time(30 s)
state ss { n := count(e1) } group by p
alert ss.n > 3
return e1, e2, ss.n`},
	{Name: "alias-as-condition", Src: `proc p write ip i as e
alert e
return p`},
	{Name: "condition-not-boolean", Src: `proc p write ip i as e #time(30 s)
state ss { amt := sum(e.amount) } group by p
alert ss.amt
alert ss.amt > 100000
return p, ss.amt`},
	{Name: "condition-fails-then-holds", Src: `proc p write ip i as e #time(30 s)
state ss { amt := sum(e.amount) } group by p
alert ss.amt / 0 > 1
alert ss.amt > 100000
return p, ss.amt / 0`},
	{Name: "update-fails", Src: `proc p start proc c as e #time(30 s)
state ss { kids := set(c.exe_name)
           n := count(e) } group by p
invariant[2][online] {
  a := empty_set
  b := empty_set
  a = a union ss.n
  b = b union ss.kids
  a = a union b
}
alert |ss.kids diff b| > 0
return p, ss.kids, a, b`},
	{Name: "variable-named-like-an-alias", Src: `proc p start proc c as e #time(30 s)
state ss { kids := set(c.exe_name) } group by p
invariant[3] {
  e := empty_set
  e = e union ss.kids
}
alert |ss.kids diff e| > 0
return p, e, e.agentid`},
	{Name: "point-not-numeric", Src: `proc p write ip i as e #time(1 min)
state ss { dsts := set(i.dstip) } group by p
cluster(points=all(ss.dsts), distance="ed", method="DBSCAN(5, 2)")
alert cluster.outlier || cluster.cluster_id < 0
return p, cluster.outlier, cluster.cluster_id, cluster.size`},
	{Name: "cluster-in-return", Src: `proc p write ip i as e #time(1 min)
state ss { amt := sum(e.amount) } group by i.dstip
cluster(points=all(ss.amt / 1000), distance="ed", method="DBSCAN(50, 2)")
alert cluster.size >= 0
return i.dstip, ss.amt, cluster.outlier, cluster.cluster_id, cluster.size`},
}

// closeSeed is one background workload the differential runs over, named
// for its subtests.
type closeSeed struct {
	label string
	seed  int64
}

// closeSeeds are the demo stream's own seed, a pinned second one, and one
// fresh per run unless SAQL_CONFORMANCE_SEED pins it. The fresh seed's
// subtests are labelled "seed=fresh", so the suite's test names do not
// change from run to run.
func closeSeeds(t *testing.T) []closeSeed {
	seed := time.Now().UnixNano() % 1_000_000
	if s := os.Getenv("SAQL_CONFORMANCE_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SAQL_CONFORMANCE_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("close differential fresh seed = %d (set SAQL_CONFORMANCE_SEED=%d to reproduce)", seed, seed)
	return []closeSeed{{"seed=42", 42}, {"seed=540010", 540010}, {"seed=fresh", seed}}
}

// renderAlert spells out every field the two sides must agree on: the return
// items' names and order, the values with their kinds, the group key, the
// event time and the matched events' identities.
func renderAlert(a *Alert) string {
	out := fmt.Sprintf("%s/%s key=%q at=%s events=", a.Query, a.Kind, a.GroupKey, a.EventTime.Format(time.RFC3339Nano))
	for _, ev := range a.Events {
		out += fmt.Sprintf(" %p", ev)
	}
	for _, nv := range a.Values {
		out += fmt.Sprintf(" | %s=%s(%s)", nv.Name, nv.Val.Kind(), nv.Val)
	}
	return out
}

func renderAlerts(alerts []*Alert) string {
	out := ""
	for _, a := range alerts {
		out += renderAlert(a) + "\n"
	}
	return out
}

// TestCloseMatchesOracle runs one instance of each query through its compiled
// close and a second through the oracle's, event for event: the alerts agree
// field for field, and so do the error reports and the counters — EvalErrors
// and Suppressed among them — the two instances end with.
func TestCloseMatchesOracle(t *testing.T) {
	clock := func() time.Time { return t0 }
	cases := append(foldCases(), closeDiffShapes...)
	for _, s := range closeSeeds(t) {
		events := demoStreamSeeded(t, s.seed)
		for _, c := range cases {
			t.Run(c.Name+"/"+s.label, func(t *testing.T) {
				// A small partial-match table keeps the multievent joins of the
				// corpus cheap; what a completed match evaluates is the same.
				opts := CompileOptions{MaxPartials: 64}
				prod, err := Compile(c.Name, c.Src, opts)
				if err != nil {
					t.Fatal(err)
				}
				ref, _ := Compile(c.Name, c.Src, opts)
				prod.SetClock(clock)
				ref.SetClock(clock)
				var prodErrs, refErrs []string
				prodReport := func(err error) { prodErrs = append(prodErrs, err.Error()) }
				refReport := func(err error) { refErrs = append(refErrs, err.Error()) }
				alerts := 0
				for _, ev := range events {
					hits := prod.Hits(ev)
					got, want := prod.Ingest(ev, hits, prodReport), ref.refCloseIngest(ev, hits, refReport)
					if renderAlerts(got) != renderAlerts(want) {
						t.Fatalf("%s: alerts diverge:\n  compiled: %s  oracle:   %s", ev, renderAlerts(got), renderAlerts(want))
					}
					alerts += len(got)
				}
				var got, want []*Alert
				if prod.stateful {
					got, want = prod.Flush(prodReport), ref.refCloseAll(ref.winMgr.Flush(), refReport)
				}
				if renderAlerts(got) != renderAlerts(want) {
					t.Fatalf("flush: alerts diverge:\n  compiled: %s  oracle:   %s", renderAlerts(got), renderAlerts(want))
				}
				if fmt.Sprint(prodErrs) != fmt.Sprint(refErrs) {
					t.Fatalf("error reports diverge:\n  compiled: %d %.300v\n  oracle:   %d %.300v", len(prodErrs), prodErrs, len(refErrs), refErrs)
				}
				if prod.Stats() != ref.Stats() {
					t.Fatalf("stats diverge:\n  compiled: %+v\n  oracle:   %+v", prod.Stats(), ref.Stats())
				}
				st := prod.Stats()
				t.Logf("%d alerts, %d suppressed, %d errors", alerts+len(got), st.Suppressed, st.EvalErrors)
			})
		}
	}
}
