package main

import (
	"fmt"
	"time"

	"saql"
)

// namedQuery is one SAQL source under its registration name.
type namedQuery struct{ Name, SAQL string }

// markerQuery fires once per marker event (no `distinct`, no window): the
// alert every workload's latency is measured on.
var markerQuery = namedQuery{"marker", fmt.Sprintf(`
proc p["%%%s"] connect ip i[dstip=%q] as evt
return p, i`, markerExe, markerDstIP)}

// coldQueries is qs-cold: the paper's 8 demo queries instantiated for both
// victim triples. Every one is pinned to a host by a global agentid
// constraint, so well under 1% of a fleet-wide stream reaches any state.
func coldQueries(c *corpus) []namedQuery {
	var out []namedQuery
	for v, vic := range c.Victims {
		sc := saql.AttackScenario{Workstation: vic.Workstation, MailServer: vic.Mail, DBServer: vic.DB, AttackerIP: c.Attack.AttackerIP}
		for _, q := range sc.DemoQueries(10*time.Second, 5) {
			out = append(out, namedQuery{fmt.Sprintf("v%d-%s", v, q.Name), q.SAQL})
		}
	}
	return append(out, markerQuery)
}

// hotFamilies are the four fleet-wide stateful query shapes of qs-hot. None
// has an agentid constraint, so every host's events fold into state. %d is
// the window length in seconds; thresholds are set so each family alerts on
// a small share of its windows.
var hotFamilies = []struct{ name, saql string }{
	{"ts-avg", `
proc p write ip i as evt #time(%d s)
state[3] ss { avg_amount := avg(evt.amount) } group by p
alert (ss[0].avg_amount > (ss[0].avg_amount + ss[1].avg_amount + ss[2].avg_amount) / 3) && (ss[0].avg_amount > 400000)
return p, ss[0].avg_amount`},
	{"outlier-dst", `
proc p read || write ip i as evt #time(%d s)
state ss { amt := sum(evt.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="ed", method="DBSCAN(200000, 3)")
alert cluster.outlier && ss.amt > 2000000
return i.dstip, ss.amt`},
	{"inv-children", `
proc p1 start proc p2 as evt #time(%d s)
state ss { kids := set(p2.exe_name) } group by p1
invariant[3][offline] {
  a := empty_set
  a = a union ss.kids
}
alert |ss.kids diff a| > 0
return p1, ss.kids`},
	{"count-files", `
proc p read || write file f as evt #time(%d s)
state ss { n := count(evt) } group by p
alert ss.n > 12
return p, ss.n`},
}

// hotQueries is qs-hot: each family at eight window lengths (10–17 s). The
// patterns within a family are identical, so the scheduler shares their
// evaluation (4 pattern groups) while every query keeps its own window
// state (32 state replicas).
func hotQueries() []namedQuery {
	var out []namedQuery
	for _, f := range hotFamilies {
		for w := 10; w <= 17; w++ {
			out = append(out, namedQuery{fmt.Sprintf("%s-%ds", f.name, w), fmt.Sprintf(f.saql, w)})
		}
	}
	return append(out, markerQuery)
}

// mixedQueries is qs-mixed: qs-cold plus one time-series and one count
// query from qs-hot, so checkpoints carry real group state while the
// journal stays a visible share of ingest cost.
func mixedQueries(c *corpus) []namedQuery {
	out := coldQueries(c)
	for _, i := range []int{0, 3} {
		f := hotFamilies[i]
		out = append(out, namedQuery{f.name + "-10s", fmt.Sprintf(f.saql, 10)})
	}
	return out
}
