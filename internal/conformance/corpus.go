// Package conformance holds what the conformance suites of several packages
// share:
//   - the language corpus and the extraction of the docs' fenced query
//     blocks;
//   - the seeded simulation that checks the serial contract: the ordered
//     fleet stream (Fleet) and the disordered one (Disorder), one table of
//     query shapes, one step type and the script a seed derives (NewSim),
//     played by the runners of the root package and of internal/dist;
//   - the one seed rule every seeded suite follows (Seeds).
//
// It imports internal/event and package testing, never saql, so the root
// package's in-package tests can use it; only tests import it, which CI
// checks on the build graph.
package conformance

import (
	"fmt"
	"os"
	"strings"
)

// Case is one corpus query and the anomaly model (engine.ModelKind.String)
// it must classify to.
type Case struct {
	Name string
	Src  string
	Kind string
}

// Corpus is a battery of SAQL queries covering every construct the grammar
// supports. Each must validate, compile, classify to Kind, and execute over
// the demo stream without evaluation errors.
var Corpus = []Case{
	// --- rule-based ----------------------------------------------------
	{"single-pattern", `proc p read file f return p, f`, "rule"},
	{"anonymous-entities", `proc["%cmd.exe"] start proc as e return e.agentid`, "rule"},
	{"op-alternation", `proc p read || write || execute file f return p`, "rule"},
	{"process-events", `proc p start proc c as e return p, c`, "rule"},
	{"network-events", `proc p connect ip i[dstip="10.0.0.1", dport=443] return p, i`, "rule"},
	{"global-constraint", `agentid = "db-1"
proc p delete file f["%log%"] return p, f`, "rule"},
	{"two-globals", `agentid != "ws-1"
host != "ws-2"
proc p rename file f return p`, "rule"},
	{"numeric-constraints", `proc p[pid > 1000, pid <= 30000] read file f return p.pid`, "rule"},
	{"temporal-pair", `proc p write file f as e1
proc q2 read file f as e2
with e1 -> e2
return p, q2, f`, "rule"},
	{"temporal-full-chain", `proc a start proc b as e1
proc b write file f as e2
proc c read file f as e3
proc c write ip i as e4
with e1 -> e2 -> e3 -> e4
return a, b, c, f, i`, "rule"},
	{"unordered-conjunction", `proc p write file f1["%a%"] as e1
proc p write file f2["%b%"] as e2
return p, f1, f2`, "rule"},
	{"explicit-alert-on-rule", `proc p write ip i as e
alert e.amount > 1000000 && i.dstip != "10.0.0.1"
return p, i, e.amount`, "rule"},
	{"rule-with-horizon-window", `proc p start proc c as e #time(5 min) return p, c`, "rule"},
	{"accept-op", `proc p accept ip i return p, i.srcip, i.sport`, "rule"},
	{"return-aliases", `proc p read file f return p as process, f.basename as file`, "rule"},
	{"distinct-return", `proc p execute file f return distinct p, f`, "rule"},
	{"event-attrs", `proc p write ip i as e return e.amount, e.agentid, e.optype, e.id`, "rule"},

	// --- stateful (aggregation only) ------------------------------------
	{"count-stateful", `proc p start proc c as e #time(1 min)
state ss { n := count(e) } group by p
alert ss.n > 10
return p, ss.n`, "stateful"},
	{"all-aggregators", `proc p write ip i as e #time(1 min)
state ss {
  a := avg(e.amount)
  s := sum(e.amount)
  n := count(e)
  lo := min(e.amount)
  hi := max(e.amount)
  sd := stddev(e.amount)
  vr := variance(e.amount)
  md := median(e.amount)
  p9 := percentile(e.amount, 99)
  st := set(i.dstip)
  dc := distinct(i.dstip)
  fs := first(i.dstip)
  ls := last(i.dstip)
} group by p
alert ss.hi > 1000000 && ss.n > 5
return p, ss.a, ss.dc`, "stateful"},
	{"group-by-multiple", `proc p write ip i as e #time(30 s)
state ss { amt := sum(e.amount) } group by p, i.dstip
alert ss.amt > 1000
return p, i.dstip, ss.amt`, "stateful"},
	{"no-group-by", `proc p write ip i as e #time(30 s)
state ss { total := sum(e.amount) }
alert ss.total > 100000000
return ss.total`, "stateful"},
	{"hopping-window", `proc p write ip i as e #time(10 min, 1 min)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 1000000
return p, ss.amt`, "stateful"},

	// --- time-series -----------------------------------------------------
	{"paper-query-2", `proc p write ip i as evt #time(10 min)
state[3] ss { avg_amount := avg(evt.amount) } group by p
alert (ss[0].avg_amount > (ss[0].avg_amount + ss[1].avg_amount + ss[2].avg_amount) / 3) && (ss[0].avg_amount > 10000)
return p, ss[0].avg_amount, ss[1].avg_amount, ss[2].avg_amount`, "time-series"},
	{"deep-history", `proc p write ip i as e #time(1 min)
state[8] ss { amt := sum(e.amount) } group by p
alert ss[0].amt > 2 * ss[7].amt && ss[7].amt > 0
return p, ss[0].amt, ss[7].amt`, "time-series"},
	{"history-arith", `proc p read file f as e #time(30 s)
state[2] ss { n := count(e) } group by p
alert abs(ss[0].n - ss[1].n) > 100
return p, ss[0].n`, "time-series"},

	{"history-scalars", `proc p write ip i as e #time(1 min)
state[3] ss { amt := sum(e.amount) } group by p
alert pow(ss[2].amt, 2) > 100 && sqrt(ss[1].amt) >= 0 && abs(ss[0].amt - ss[2].amt) >= 0
return p, ss[0].amt, pow(ss[2].amt, 2)`, "time-series"},

	// --- invariant ---------------------------------------------------------
	{"paper-query-3", `proc p1["%apache.exe"] start proc p2 as evt #time(10 s)
state ss { set_proc := set(p2.exe_name) } group by p1
invariant[10][offline] {
  a := empty_set
  a = a union ss.set_proc
}
alert |ss.set_proc diff a| > 0
return p1, ss.set_proc`, "invariant"},
	{"online-invariant", `proc p write file f as e #time(1 min)
state ss { files := set(f.name) } group by p
invariant[20][online] {
  seen := empty_set
  seen = seen union ss.files
}
alert |ss.files diff seen| > 3
return p, ss.files`, "invariant"},
	{"invariant-intersect", `proc p connect ip i as e #time(1 min)
state ss { dsts := set(i.dstip) } group by p
invariant[5] {
  known := empty_set
  known = known union ss.dsts
}
alert |ss.dsts diff known| > 0 && |ss.dsts intersect known| = 0
return p, ss.dsts`, "invariant"},

	// --- outlier -------------------------------------------------------------
	{"paper-query-4", `agentid = "db-1"
proc p["%sqlservr.exe"] read || write ip i as evt #time(10 min)
state ss { amt := sum(evt.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="ed", method="DBSCAN(100000, 5)")
alert cluster.outlier && ss.amt > 1000000
return i.dstip, ss.amt`, "outlier"},
	{"kmeans-outlier", `proc p write ip i as e #time(1 min)
state ss { amt := sum(e.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="md", method="KMEANS(4)")
alert cluster.outlier
return i.dstip, ss.amt, cluster.cluster_id`, "outlier"},
	{"cluster-fields", `proc p write ip i as e #time(1 min)
state ss { n := count(e) } group by i.dstip
cluster(points=all(ss.n), distance="cd", method="DBSCAN(5, 2)")
alert cluster.outlier || cluster.size < 2
return i.dstip, cluster.cluster_id, cluster.size`, "outlier"},
	{"cosine-distance", `proc p write ip i as e #time(1 min)
state ss { amt := sum(e.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="cos", method="DBSCAN(0.5, 2)")
alert cluster.outlier
return i.dstip`, "outlier"},

	// --- expression surface ---------------------------------------------------
	{"scalar-functions", `proc p write ip i as e #time(1 min)
state ss { amt := sum(e.amount) } group by p
alert sqrt(ss.amt) > 1000 && floor(ss.amt) >= ceil(ss.amt) - 1 && pow(2, 10) = 1024
return p, abs(ss.amt), len(p.exe_name)`, "stateful"},
	{"in-operator", `proc p start proc c as e #time(1 min)
state ss { kids := set(c.exe_name) } group by p
alert "cmd.exe" in ss.kids
return p, ss.kids`, "stateful"},
	{"contains-function", `proc p write file f as e #time(1 min)
state ss { files := set(f.name) } group by p
alert contains(ss.files, "backup1.dmp")
return p`, "stateful"},
	{"wildcard-alert", `proc p write file f as e
alert f.name == "%.dmp" && p.exe_name != "%sql%"
return p, f`, "rule"},
	{"not-operator", `proc p write ip i as e #time(1 min)
state ss { amt := sum(e.amount) } group by p
alert !(ss.amt < 1000000)
return p`, "stateful"},
	{"multiple-alerts", `proc p write ip i as e #time(1 min)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 100000000
alert ss.amt > 10000000 && p.exe_name == "%sql%"
return p, ss.amt`, "stateful"},
	{"comments-everywhere", `// leading comment
agentid = "db-1" // SQL database server (obfuscated)
proc p write ip i as evt #time(10 min) // pattern
state ss { amt := sum(evt.amount) } group by p // state
alert ss.amt > 10 // alert
return p // done`, "stateful"},
}

// FencedBlocks extracts the ```<lang> fenced code blocks from a markdown file.
func FencedBlocks(path, lang string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var blocks []string
	var cur []string
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case !in && strings.TrimSpace(line) == "```"+lang:
			in = true
			cur = cur[:0]
		case in && strings.TrimSpace(line) == "```":
			in = false
			blocks = append(blocks, strings.Join(cur, "\n"))
		case in:
			cur = append(cur, line)
		}
	}
	if in {
		return nil, fmt.Errorf("%s: unterminated ```%s block", path, lang)
	}
	return blocks, nil
}
