package runtime

// The router's touch cost on a qs-hot-shaped set: the benchmark's four
// fleet-wide stateful shapes (bench/queries.go) at eight window lengths each,
// over a stream of their events in turn. TestTouchOpsOncePerSlice gates the
// touch ops a started engine sends to one per by-group set, shard and slice
// of the set's specs, plus one per control point behind which the router
// forgets what it sent; BenchmarkRouteHotSet times the router and the shards
// on it and counts what they exchange.

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"saql/internal/engine"
	"saql/internal/event"
	"saql/internal/scheduler"
	"saql/internal/window"
)

// hotShapes are the qs-hot shapes, %d the window length in seconds, each with
// the operation and object of the events that hit it.
var hotShapes = []struct {
	name, src string
	op        event.Op
	object    func(k int) event.Entity
}{
	{"ts-avg", `proc p write ip i as evt #time(%d s)
state[3] ss { avg_amount := avg(evt.amount) } group by p
alert (ss[0].avg_amount > (ss[0].avg_amount + ss[1].avg_amount + ss[2].avg_amount) / 3) && (ss[0].avg_amount > 400000)
return p, ss[0].avg_amount`, event.OpWrite, func(k int) event.Entity {
		return event.NetConn("10.0.0.2", 1433, fmt.Sprintf("10.1.0.%d", k%200), 443)
	}},
	{"outlier-dst", `proc p read || write ip i as evt #time(%d s)
state ss { amt := sum(evt.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="ed", method="DBSCAN(200000, 3)")
alert cluster.outlier && ss.amt > 2000000
return i.dstip, ss.amt`, event.OpRead, func(k int) event.Entity {
		return event.NetConn("10.0.0.2", 1433, fmt.Sprintf("10.1.0.%d", k%200), 443)
	}},
	{"inv-children", `proc p1 start proc p2 as evt #time(%d s)
state ss { kids := set(p2.exe_name) } group by p1
invariant[3][offline] {
  a := empty_set
  a = a union ss.kids
}
alert |ss.kids diff a| > 0
return p1, ss.kids`, event.OpStart, func(k int) event.Entity {
		return event.Process(fmt.Sprintf("child-%d.exe", k%5), int32(9000+k%5))
	}},
	{"count-files", `proc p read || write file f as evt #time(%d s)
state ss { n := count(evt) } group by p
alert ss.n > 12
return p, ss.n`, event.OpRead, func(k int) event.Entity {
		return event.File(fmt.Sprintf("/var/data/%d.db", k%50))
	}},
}

// hotQueries compiles every shape at window lengths of 10–17 s.
func hotQueries(tb testing.TB) []*engine.Query {
	tb.Helper()
	var qs []*engine.Query
	for _, sh := range hotShapes {
		for w := 10; w < 18; w++ {
			q, err := engine.Compile(fmt.Sprintf("%s-%ds", sh.name, w), fmt.Sprintf(sh.src, w), engine.CompileOptions{})
			if err != nil {
				tb.Fatal(err)
			}
			qs = append(qs, q)
		}
	}
	return qs
}

// hotStream is n events of the shapes in turn, over 200 subject processes,
// 5 ms apart.
func hotStream(n int) []*event.Event {
	base := time.Date(2026, 5, 1, 0, 0, 0, 0, time.UTC)
	evs := make([]*event.Event, n)
	for k := range evs {
		sh := hotShapes[k%len(hotShapes)]
		evs[k] = &event.Event{
			Time:    base.Add(time.Duration(k) * 5 * time.Millisecond),
			AgentID: "host-1",
			Subject: event.Process(fmt.Sprintf("svc-%d.exe", k%200), int32(100+k%200)),
			Op:      sh.op,
			Object:  sh.object(k),
			Amount:  float64(1000 + k%5000),
		}
	}
	return evs
}

// routeCounts is what the shards of one run were handed.
type routeCounts struct {
	mu                      sync.Mutex
	entries, ops, touches   int64
	touchedBySet            map[int32]int64
	entriesTouchOnly, evsIn int64
}

func (c *routeCounts) observe(_ int, b *shardBatch, e *routedEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries++
	only := true
	for _, op := range b.ops[e.first : e.first+e.n] {
		c.ops++
		if op.Kind == scheduler.OpTouch {
			c.touches++
		} else {
			only = false
		}
	}
	if only {
		c.entriesTouchOnly++
	}
}

// routeHot runs evs through a started runtime of the given shards holding
// the qs-hot-shaped set, in submissions of 512 with a stats read — a control
// point — every every events (0: none), and returns what the shards were
// handed, the by-group sets' specs, and the control points read.
func routeHot(tb testing.TB, shards int, evs []*event.Event, every int) (*routeCounts, [][]window.Spec, int) {
	tb.Helper()
	c := &routeCounts{}
	r := Start(Config{Shards: shards, Sharing: true}, event.Watermark{})
	r.testObserve = c.observe
	specs := map[string][]window.Spec{}
	var families []string
	for _, q := range hotQueries(tb) {
		if _, err := r.Add(q); err != nil {
			tb.Fatal(err)
		}
		if q.Placement() == engine.PlaceByGroup {
			fam := q.Name[:len(q.Name)-len("-10s")]
			if specs[fam] == nil {
				families = append(families, fam)
			}
			specs[fam] = append(specs[fam], q.WindowSpec())
		}
	}
	controls := 0
	for i := 0; i < len(evs); i += 512 {
		if every > 0 && i > 0 && i%every < 512 {
			if _, err := r.QueryStats("ts-avg-10s"); err != nil {
				tb.Fatal(err)
			}
			controls++
		}
		if err := r.SubmitBatch(evs[i:min(i+512, len(evs))]); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := r.QueryStats("ts-avg-10s"); err != nil { // a barrier behind every batch
		tb.Fatal(err)
	}
	r.Close()
	var out [][]window.Spec
	for _, fam := range families {
		out = append(out, specs[fam])
	}
	return c, out, controls
}

// slicesHit counts the slices of specs — intersected from
// window.Spec.SliceAt — that the events of hotStream's shape sh fall in.
func slicesHit(specs []window.Spec, evs []*event.Event, sh int) int64 {
	var n int64
	last := int64(math.MinInt64)
	for k, ev := range evs {
		if k%len(hotShapes) != sh {
			continue
		}
		start := int64(math.MinInt64)
		for _, s := range specs {
			a, _ := s.SliceAt(ev.Time.UnixNano())
			start = max(start, a)
		}
		if start != last {
			n, last = n+1, start
		}
	}
	return n
}

// TestTouchOpsOncePerSlice: on a qs-hot-shaped set at 2, 3 and 8 shards,
// with a stats read every 4,096 events, the touch ops the shards are handed
// are at most, per by-group variant set and shard, one per slice of the set's
// specs its hits fall in plus one per control point. Hit by hit, a touch
// went to every replica that folded nothing, for every hit.
func TestTouchOpsOncePerSlice(t *testing.T) {
	evs := hotStream(24000) // 120 s: a dozen windows of every length
	for _, shards := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, specs, controls := routeHot(t, shards, evs, 4096)
			if len(specs) != 3 {
				t.Fatalf("%d by-group sets, want ts-avg, inv-children and count-files", len(specs))
			}
			// ts-avg, inv-children and count-files: hotShapes 0, 2 and 3.
			var bound, perHit int64
			for i, sh := range []int{0, 2, 3} {
				bound += int64(shards) * (slicesHit(specs[i], evs, sh) + int64(controls))
				perHit += int64(shards-1) * int64(len(evs)/len(hotShapes))
			}
			t.Logf("%d events: %d entries (%d touch-only), %d ops, %d touches; bound %d, %d hit by hit",
				len(evs), c.entries, c.entriesTouchOnly, c.ops, c.touches, bound, perHit)
			if c.touches == 0 || c.touches > bound {
				t.Fatalf("%d touch ops, bound %d (sets × shards × slices + controls)", c.touches, bound)
			}
		})
	}
}

// BenchmarkRouteHotSet times a started runtime of 2 shards holding the
// qs-hot-shaped set over 20,000 events of it, submitted 512 at a time, from
// the first submission to a barrier behind the last (ns/event), and reports
// what one pass hands the shards per event: entries, ops and touch ops.
// With a touch per hit: 1,710 ns/event, 2.00 entries, 2.50 ops and 0.75
// touches per event; with a touch per slice: 1,640 ns/event, 1.50 entries,
// 1.76 ops and 0.0062 touches (2 cores, medians of eight alternated runs of
// 30 iterations). The hot-first event layout (368 bytes) read 1,110 →
// 1,183 ns/event, inside the runs' spread (950–1,471), with the same
// entries, ops and touches (medians of six alternated runs).
func BenchmarkRouteHotSet(b *testing.B) {
	evs := hotStream(20000)
	c, _, _ := routeHot(b, 2, evs, 0)
	n := float64(len(evs))
	b.ReportMetric(float64(c.entries)/n, "entries/event")
	b.ReportMetric(float64(c.ops)/n, "ops/event")
	b.ReportMetric(float64(c.touches)/n, "touches/event")
	var elapsed time.Duration
	for range b.N {
		r := Start(Config{Shards: 2, Sharing: true}, event.Watermark{})
		for _, q := range hotQueries(b) {
			if _, err := r.Add(q); err != nil {
				b.Fatal(err)
			}
		}
		start := time.Now()
		for i := 0; i < len(evs); i += 512 {
			if err := r.SubmitBatch(evs[i:min(i+512, len(evs))]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := r.QueryStats("ts-avg-10s"); err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(start)
		r.Close()
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/(n*float64(b.N)), "ns/event")
}
