package saql

// A started engine sends a by-group variant set's replicas that fold nothing
// for a hit one touch per slice of the set's window specs, not one per hit:
// every instant of a slice opens the same windows, so the first fold, key
// error or touch a shard gets in a slice opens them all — unless a control
// point came between, after which the router forgets what it sent. A member
// paused before the slice's first touch and resumed inside it, a member
// registered mid-slice, a carrying hot-swap mid-slice and a restored engine
// must all still open their windows on every replica, or a quiet group's
// history ring misses a window there. This fence plays such a script over a
// stream with hits on slice edges and 1 ns before them and late hits behind
// the watermark, at 1, 2, 3 and 8 shards, against the serial engine: alerts,
// every QueryStats field and the state bytes.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"saql/internal/conformance"
	"saql/internal/engine"
	"saql/internal/parser"
	"saql/internal/window"
)

// touchStart is the touch stream's start, on a minute: slice edges fall on
// whole seconds from it.
var touchStart = time.Date(2026, 5, 1, 0, 0, 0, 0, time.UTC)

// touchEdges are the slice edges of every spec the fence registers — window
// starts and ends of 10 s, 15 s, 12 s hopping by 4 s, and 6 s gapped by 9 s
// — up to d.
func touchEdges(d time.Duration) []time.Duration {
	var edges []time.Duration
	for e := time.Duration(0); e <= d; e += time.Second {
		s := e / time.Second
		if s%4 == 0 || s%10 == 0 || s%15 == 0 || s%9 == 0 || s%9 == 6 {
			edges = append(edges, e)
		}
	}
	return edges
}

// touchStream is 90 s of write-ip events over 16 processes, 150–350 ms
// apart, with one hit 1 ns before and one exactly on every slice edge and,
// every 40 events, one 20 s behind the stream: late for the shorter windows.
// From 53 s to 60 s one process writes alone, nothing late among it, so one
// shard folds and every other replica opens the gapped window [54 s, 60 s)
// by a touch alone.
func touchStream() []*Event {
	rng := rand.New(rand.NewSource(43))
	var evs []*Event
	add := func(at time.Duration) {
		k := rng.Intn(16)
		if at >= 53*time.Second && at < 60*time.Second {
			k = 3
		}
		evs = append(evs, &Event{
			Time:    touchStart.Add(at),
			AgentID: "host-1",
			Subject: Process(fmt.Sprintf("svc-%d.exe", k), int32(100+k)),
			Op:      OpWrite,
			Object:  NetConn("10.0.0.2", 1433, fmt.Sprintf("10.1.0.%d", rng.Intn(8)), 443),
			Amount:  float64(rng.Intn(1000)),
		})
	}
	const end = 90 * time.Second
	edges := touchEdges(end)
	for now := time.Duration(0); now < end; {
		next := now + 150*time.Millisecond + time.Duration(rng.Intn(200))*time.Millisecond
		for len(edges) > 0 && edges[0] <= next {
			if edges[0] > now {
				add(edges[0] - 1)
				add(edges[0])
			}
			edges = edges[1:]
		}
		add(next)
		if quiet := next >= 53*time.Second && next < 60*time.Second; len(evs)%40 == 0 && next > 20*time.Second && !quiet {
			add(next - 20*time.Second)
		}
		now = next
	}
	return evs
}

// touchQueries are one variant set — one pattern, one key — of a history
// ring at 10 s, a sum at 12 s hopping by 4 s and a count at 15 s, and, in the
// gapped case, a history ring over 6 s windows every 9 s. A replica that
// never opens a window closes one window fewer than the others, and its
// groups' rings then hold other windows than serial's.
func touchQueries(gapped bool) []conformance.Query {
	qs := []conformance.Query{
		{Name: "t-hist", Src: conformance.Src("history", "10 s", 300)},
		{Name: "t-hop", Src: conformance.Src("sum-by-p", "12 s, 4 s", 1500)},
		{Name: "t-count", Src: conformance.Src("count-sum-by-p", "15 s", 3)},
	}
	if gapped {
		qs = append(qs, conformance.Query{Name: "t-gap", Src: conformance.Src("history", "6 s", 200)})
	}
	return qs
}

// compileGapped compiles t-gap with a 9 s hop, which the language does not
// write, and every other query from its source.
func compileGapped(name, src string) (*engine.Query, error) {
	if name != "t-gap" {
		return engine.Compile(name, src, engine.CompileOptions{})
	}
	ast, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	ast.Window.Hop = 9 * time.Second
	return engine.CompileAST(name, ast, engine.CompileOptions{})
}

// touchScript cuts evs at its control points, each inside a slice, with a
// stats read behind the windows they matter to and behind the gapped window
// [54 s, 60 s): t-hist is paused inside
// [8 s, 10 s) and resumed inside [18 s, 20 s), after the first hits of the
// last slice of its window [10 s, 20 s), which it must then open on every
// replica; t-reg joins inside [36 s, 40 s), the last slice of the window
// [30 s, 40 s) it opens; t-count is swapped for another threshold, carrying
// its state, inside [60 s, 63 s); and, with crash, a checkpoint inside
// [64 s, 68 s) and a crash a few events later, so that the restored engine
// replays into a slice it had begun.
func touchScript(evs []*Event, crash bool) []conformance.Step {
	at := func(s float64) int {
		t := touchStart.Add(time.Duration(s * float64(time.Second)))
		return slices.IndexFunc(evs, func(ev *Event) bool { return !ev.Time.Before(t) })
	}
	submit := func(from, to int) conformance.Step {
		return conformance.Step{Op: conformance.Submit, From: from, To: to}
	}
	script := []conformance.Step{
		submit(0, at(9.5)),
		{Op: conformance.Pause, Name: "t-hist"},
		submit(at(9.5), at(19.5)),
		{Op: conformance.Resume, Name: "t-hist"},
		submit(at(19.5), at(20.5)),
		{Op: conformance.Stats},
		submit(at(20.5), at(39.5)),
		{Op: conformance.Register, Name: "t-reg", Src: conformance.Src("history", "10 s", 400)},
		submit(at(39.5), at(40.5)),
		{Op: conformance.Stats},
		submit(at(40.5), at(60.5)),
		{Op: conformance.Stats},
		submit(at(60.5), at(62.5)),
		{Op: conformance.Update, Name: "t-count", Src: conformance.Src("count-sum-by-p", "15 s", 4), Carry: true},
		submit(at(62.5), at(66.5)),
	}
	if !crash {
		return append(script, submit(at(66.5), len(evs)), conformance.Step{Op: conformance.Stats})
	}
	kill := at(67) + 2
	return append(script,
		conformance.Step{Op: conformance.Checkpoint},
		submit(at(66.5), kill),
		conformance.Step{Op: conformance.Crash},
		submit(kill, len(evs)),
		conformance.Step{Op: conformance.Stats},
	)
}

// TestTouchOncePerSliceMatchesSerial plays touchScript at 1, 2, 3 and 8
// shards against the serial engine, which folds every hit: on the set of a
// tumbling, a hopping and a history member, through a checkpoint, a crash
// and a restore (the reference runs the script without the crash), and on
// the set with a gapped member beside them.
func TestTouchOncePerSliceMatchesSerial(t *testing.T) {
	evs := touchStream()
	for _, c := range []struct {
		name   string
		gapped bool
	}{{"tumbling-hopping", false}, {"gapped", true}} {
		t.Run(c.name, func(t *testing.T) {
			opts := simOpts{states: true}
			if c.gapped {
				opts.compile = compileGapped
			}
			ref := &conformance.Sim{Seed: 1, Events: evs, Queries: touchQueries(c.gapped), Script: touchScript(evs, false)}
			want := playSim(t, ref, 0, opts)
			if len(want.alerts) == 0 || want.lateHits() == 0 {
				t.Fatalf("the serial run raised %d alerts and counted %d late hits: the script tests too little", len(want.alerts), want.lateHits())
			}
			sim := ref
			if !c.gapped {
				// A restore compiles the gapped member from its source, which
				// has no gap: only the other set goes through a crash.
				sim = &conformance.Sim{Seed: 1, Events: evs, Queries: ref.Queries, Script: touchScript(evs, true)}
			}
			for _, shards := range []int{1, 2, 3, 8} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					compareSim(t, playSim(t, sim, shards, opts), want)
				})
			}
			t.Logf("%d events, %d alerts, %d late hits at every shard count", len(evs), len(want.alerts), want.lateHits())
		})
	}
}

// TestTouchEdgesAreSliceEdges pins touchEdges to the specs' own slices: every
// edge it lists is where some spec's slice starts, and no slice starts
// between two of them.
func TestTouchEdgesAreSliceEdges(t *testing.T) {
	specs := []window.Spec{
		{Length: 10 * time.Second}, {Length: 15 * time.Second},
		{Length: 12 * time.Second, Hop: 4 * time.Second}, {Length: 6 * time.Second, Hop: 9 * time.Second},
	}
	edges := touchEdges(90 * time.Second)
	var got []time.Duration
	for at := time.Duration(0); at <= 90*time.Second; {
		start, end := window.Slice(specs, touchStart.Add(at).UnixNano())
		if d := time.Duration(start - touchStart.UnixNano()); d == at {
			got = append(got, at)
		}
		at = time.Duration(end - touchStart.UnixNano())
	}
	if !slices.Equal(got, edges) {
		t.Fatalf("slice starts %v, touchEdges %v", got, edges)
	}
}
