package engine

// Engine-level fences of the per-event evaluator: every documented query
// compiles to programs everywhere (totality), and the compiled fold — key,
// argument values, error strings, and the alerts that result — is held to the
// environment-based oracle of fold_ref_test.go over the conformance corpus
// and a set of shapes that fail at run time.

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"saql/internal/attack"
	"saql/internal/collector"
	"saql/internal/conformance"
	"saql/internal/event"
	"saql/internal/expr"
	"saql/internal/parser"
	"saql/internal/pcode"
)

// demoStream is the five-host background workload with the APT kill chain
// planted two minutes in — the stream the root package's conformance suites
// run the corpus over.
func demoStream(t *testing.T) []*event.Event { return demoStreamSeeded(t, 42) }

// demoStreamSeeded is demoStream with the background workload drawn from seed.
func demoStreamSeeded(t *testing.T, seed int64) []*event.Event {
	t.Helper()
	gen, err := collector.New(collector.Config{
		Hosts: []collector.Host{
			{AgentID: "ws-victim", Kind: collector.Workstation},
			{AgentID: "ws-2", Kind: collector.Workstation},
			{AgentID: "mail-1", Kind: collector.MailServer},
			{AgentID: "web-1", Kind: collector.WebServer},
			{AgentID: "db-1", Kind: collector.DBServer},
		},
		Start:    t0,
		Duration: 5 * time.Minute,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := &attack.Scenario{
		Workstation: "ws-victim",
		MailServer:  "mail-1",
		DBServer:    "db-1",
		AttackerIP:  "172.16.0.129",
		Start:       t0.Add(2 * time.Minute),
	}
	all := append(gen.Drain(), attack.EventsOnly(sc.Events())...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time.Before(all[j].Time) })
	return all
}

// failingShapes are stateful queries whose keys or arguments fail on some or
// all hits, or take the routes the corpus does not: calls in arguments,
// no group-by, a variable shared by subject and object.
var failingShapes = []conformance.Case{
	{Name: "key-always-fails", Src: `proc p write ip i as e #time(30 s)
state ss { amt := sum(e.amount) } group by p.pid / 0
alert ss.amt > 0
return ss.amt`},
	{Name: "key-is-bare-alias", Src: `proc p write ip i as e #time(30 s)
state ss { n := count(e) } group by e
alert ss.n > 0
return ss.n`},
	{Name: "key-sometimes-fails", Src: `proc p write ip i as e #time(30 s)
state ss { amt := sum(e.amount) } group by p, 1000 / (p.pid % 3)
alert ss.amt > 100000
return p, ss.amt`},
	{Name: "arg-sometimes-fails", Src: `proc p write ip i as e #time(30 s)
state ss { r := sum(e.amount / (i.dport % 2))
           n := count(e) } group by p
alert ss.n > 3
return p, ss.r, ss.n`},
	{Name: "arg-wrong-kind", Src: `proc p write ip i as e #time(30 s)
state ss { s := sum(p.exe_name)
           q := avg(sqrt(0 - e.amount)) } group by i.dstip
alert ss.s > 0
return i.dstip`},
	{Name: "arg-calls", Src: `proc p write ip i as e #time(30 s)
state ss { a := sum(abs(e.amount))
           l := max(len(p.exe_name))
           c := set(contains(p.exe_name, "sql")) } group by e.agentid
alert ss.a > 1000000
return ss.a, ss.l, ss.c`},
	{Name: "no-group-by-call", Src: `proc p read || write file f as e #time(30 s)
state ss { total := sum(floor(e.amount) + pow(2, 3)) }
alert ss.total > 1000
return ss.total`},
	{Name: "shared-variable", Src: `proc x start proc x as e #time(30 s)
state ss { kids := set(x.exe_name) } group by x, x.pid
alert |ss.kids| > 0
return x, ss.kids`},
	{Name: "other-patterns-variable", Src: `proc p write ip i as e1
proc q read file f as e2 #time(30 s)
state ss { n := count(e1)
           m := sum(e2.amount) } group by p, f.name
alert ss.n > 50
return ss.n, ss.m`},
}

// foldCases is the conformance corpus followed by failingShapes.
func foldCases() []conformance.Case {
	return append(append([]conformance.Case{}, conformance.Corpus...), failingShapes...)
}

// TestFoldMatchesOracle replaces what the interpreted legs of the lifecycle
// and recovery hammers checked while a compile option could switch the
// compiled fold off: one instance of each query folds through its programs,
// a second through the oracle, and hit for hit the key, every argument value
// and every error string agree, as do the alerts and the error reports the
// two instances end with.
func TestFoldMatchesOracle(t *testing.T) {
	events := demoStream(t)
	clock := func() time.Time { return t0 }
	same := func(a, b error) bool { return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error()) }
	for _, c := range foldCases() {
		t.Run(c.Name, func(t *testing.T) {
			prod, ref := compile(t, c.Name, c.Src), compile(t, c.Name, c.Src)
			if !prod.stateful {
				t.Skip("rule queries fold nothing per event")
			}
			prod.SetClock(clock)
			ref.SetClock(clock)
			var prodErrs, refErrs []string
			prodReport := func(err error) { prodErrs = append(prodErrs, err.Error()) }
			refReport := func(err error) { refErrs = append(refErrs, err.Error()) }
			render := func(alerts []*Alert) string {
				out := ""
				for _, a := range alerts {
					out += a.String() + "\n"
				}
				return out
			}
			args := aggArgs(prod.AST, prod.Info)
			var folded, alerts int
			for _, ev := range events {
				hits := prod.Hits(ev)
				for _, hi := range hits {
					env := refBindEnv(prod.patterns[hi], ev)
					wantKey, wantErr := refGroupKey(prod.groupBy, env)
					gotKey, gotErr := prod.HitKey(hi, ev)
					if gotKey != wantKey || !same(gotErr, wantErr) {
						t.Fatalf("%s: key %q (%v), oracle %q (%v)", ev, gotKey, gotErr, wantKey, wantErr)
					}
					for i, arg := range args {
						want, wantErr := expr.Eval(arg, env)
						gotErr := prod.argProgs[hi][i].Run(&pcode.Frame{Event: ev}, prod.progStack)
						got := prod.progStack[0]
						if !same(gotErr, wantErr) || (wantErr == nil && (got.Kind() != want.Kind() || got.String() != want.String())) {
							t.Fatalf("%s: argument %s = %s(%s) (%v), oracle %s(%s) (%v)",
								ev, arg, got.Kind(), got, gotErr, want.Kind(), want, wantErr)
						}
					}
					folded++
				}
				got, want := prod.Ingest(ev, hits, prodReport), ref.refIngest(ev, hits, refReport)
				if render(got) != render(want) {
					t.Fatalf("%s: alerts diverge:\n  compiled: %s  oracle:   %s", ev, render(got), render(want))
				}
				alerts += len(got)
			}
			got, want := prod.Flush(prodReport), ref.Flush(refReport)
			if render(got) != render(want) {
				t.Fatalf("flush: alerts diverge:\n  compiled: %s  oracle:   %s", render(got), render(want))
			}
			if fmt.Sprint(prodErrs) != fmt.Sprint(refErrs) {
				t.Fatalf("error reports diverge:\n  compiled: %d %.300v\n  oracle:   %d %.300v", len(prodErrs), prodErrs, len(refErrs), refErrs)
			}
			if prod.Stats() != ref.Stats() {
				t.Fatalf("stats diverge:\n  compiled: %+v\n  oracle:   %+v", prod.Stats(), ref.Stats())
			}
			t.Logf("%d hits folded, %d alerts, %d errors", folded, alerts+len(got), len(prodErrs))
		})
	}
}

// TestEveryDocumentedQueryCompilesTotal pins totality where users meet it:
// every saql block of the language and queryset docs, every demo query and
// the whole conformance corpus compile with a program in every position the
// per-event path evaluates — both predicates of every pattern, the globals,
// and for stateful queries a key program per group-by item and an argument
// program per state field, per pattern.
func TestEveryDocumentedQueryCompilesTotal(t *testing.T) {
	type source struct{ name, src string }
	var sources []source
	for _, doc := range []string{"language.md", "queries.md"} {
		blocks, err := conformance.FencedBlocks("../../docs/"+doc, "saql")
		if err != nil {
			t.Fatal(err)
		}
		for i, src := range blocks {
			name := fmt.Sprintf("%s#%d", doc, i+1)
			if !parser.LooksLikeQuerySet(src) {
				sources = append(sources, source{name, src})
				continue
			}
			set, err := parser.ParseQuerySetDoc(src)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, q := range set.Queries {
				sources = append(sources, source{name + "/" + q.Name, q.Src})
			}
		}
	}
	for _, nq := range (&attack.Scenario{Start: t0}).DemoQueries(30*time.Second, 5) {
		sources = append(sources, source{"demo/" + nq.Name, nq.SAQL})
	}
	for _, c := range foldCases() {
		sources = append(sources, source{"corpus/" + c.Name, c.Src})
	}
	if len(sources) < 60 {
		t.Fatalf("only %d queries found; the docs, demo set and corpus hold more", len(sources))
	}
	for _, s := range sources {
		q, err := Compile(s.name, s.src, CompileOptions{})
		if err != nil {
			t.Errorf("%s: %v", s.name, err)
			continue
		}
		if q.global == nil {
			t.Errorf("%s: no global program", s.name)
		}
		for i, p := range q.AST.Patterns {
			if pcode.CompileEntity(p.Subject, nil) == nil || pcode.CompileEntity(p.Object, nil) == nil {
				t.Errorf("%s: pattern %d lacks a predicate program", s.name, i)
			}
		}
		if !q.stateful {
			continue
		}
		if len(q.keyProgs) != len(q.patterns) || len(q.argProgs) != len(q.patterns) {
			t.Errorf("%s: %d key rows, %d argument rows for %d patterns", s.name, len(q.keyProgs), len(q.argProgs), len(q.patterns))
			continue
		}
		for pi := range q.patterns {
			if len(q.keyProgs[pi]) != len(q.groupBy) || len(q.argProgs[pi]) != len(q.AST.State.Fields) {
				t.Errorf("%s: pattern %d has %d key programs for %d items, %d argument programs for %d fields",
					s.name, pi, len(q.keyProgs[pi]), len(q.groupBy), len(q.argProgs[pi]), len(q.AST.State.Fields))
			}
			for _, prog := range append(append([]*pcode.Prog{}, q.keyProgs[pi]...), q.argProgs[pi]...) {
				if prog == nil {
					t.Errorf("%s: pattern %d has a nil program", s.name, pi)
				}
			}
		}
	}
}
