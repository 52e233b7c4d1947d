package runtime

// Ownership-routing property battery: for random event streams, shard counts
// 1/2/3/8/96 and a cluster-style Config.Owns slice, every shard must be
// handed exactly the ops the placement rules say it owns — once per variant
// set (a scheduler group's master and its equal dependents of one key class
// and placement), not once per query — with no over-delivery (the point of
// partitioned routing) and no under-delivery (the correctness bar):
//
//   - one fold op per (event, set, pattern), on exactly the one shard
//     hash(key) mod n names — or none, when Owns gives the key to another
//     worker;
//   - every other shard holding the set's replicas gets exactly one touch for
//     it per event;
//   - a pinned set gets one op per home shard holding a member, and its
//     members, spread over those shards, count what the serial engine counts;
//   - Σ over shards of fold ops × the set's members placed on that shard = the
//     serial engine's PatternHits, query by query (and hit patterns of rule
//     ops likewise);
//   - a key that fails to evaluate is reported once per member, by the owner
//     of the empty key, folds nowhere, is not counted in PatternHits and still
//     opens its windows;
//   - a shard probes its key class directories at most once per event per
//     class and hit pattern;
//   - nothing a shard goroutine receives can reach a *scheduler.HitSet, and a
//     recycled slab retains no event, key string or layout.
//
// The reference ops are computed independently from the placement rules and
// the exported ownership hashes; the runtime's actual deliveries are captured
// with the testObserve hook, which sees every routed entry exactly as a shard
// worker is about to apply it.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"saql/internal/engine"
	"saql/internal/event"
	"saql/internal/scheduler"
)

// routingQueries covers every placement mode and every kind of group key,
// most of them as variant sets. Write events hit the first twelve: a by-group
// set of three window lengths on a bare variable, a by-group query with two
// patterns whose keys differ, a by-event rule set of two, a pinned stateful
// set of three (homed round-robin, so spread over the shards) and a pinned
// rule query. set names each query's variant set by its first member. Read
// events hit the two by-group queries whose keys are computed — one by
// arithmetic, one that fails on every hit and so routes as the empty key.
var routingQueries = []struct{ name, set, src string }{
	{"grp-fast", "grp-fast", `proc p write ip i as e #time(1 h)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 1000000000000
return p, ss.amt`},
	{"grp-fast-2h", "grp-fast", `proc p write ip i as e #time(2 h)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > 1000000000000
return p, ss.amt`},
	{"grp-fast-30m", "grp-fast", `proc p write ip i as e #time(30 min)
state ss { n := count(e) } group by p
alert ss.n > 1000000000000
return p, ss.n`},
	{"grp-two", "grp-two", `proc p write ip i as e1 #time(1 h)
proc q write ip j as e2
state ss { amt := sum(e1.amount) } group by p
alert ss.amt > 1000000000000
return ss.amt`},
	{"by-event", "by-event", `proc p write ip i as e
alert e.amount > 1000000000000
return p`},
	{"by-event-2", "by-event", `proc p write ip i as e
alert e.amount > 2000000000000
return p`},
	{"pinned-global", "pinned-global", `proc p write ip i as e #time(1 h)
state ss { total := sum(e.amount) }
alert ss.total > 1000000000000000
return ss.total`},
	{"pinned-global-2h", "pinned-global", `proc p write ip i as e #time(2 h)
state ss { total := sum(e.amount) }
alert ss.total > 1000000000000000
return ss.total`},
	{"pinned-global-20m", "pinned-global", `proc p write ip i as e #time(20 min)
state ss { n := count(e) }
alert ss.n > 1000000000000000
return ss.n`},
	{"pinned-distinct", "pinned-distinct", `proc p write ip i as e
alert e.amount > 1000000000000
return distinct p`},
	{"grp-expr", "grp-expr", `proc p read file f as e #time(1 h)
state ss { amt := sum(e.amount) } group by p.pid + 0
alert ss.amt > 1000000000000
return ss.amt`},
	{"grp-err", "grp-err", `proc p read file f as e #time(1 h)
state ss { amt := sum(e.amount) } group by p.pid / 0
alert ss.amt > 1000000000000
return ss.amt`},
}

// setMembers lists each variant set's members by the set's name.
func setMembers() map[string][]string {
	out := map[string][]string{}
	for _, qs := range routingQueries {
		out[qs.set] = append(out[qs.set], qs.name)
	}
	return out
}

// obsOp is one observed or expected op, by set name instead of layout index.
type obsOp struct {
	set  string
	kind scheduler.OpKind
	pat  uint8
	pats uint64
	key  string
}

func (o obsOp) String() string {
	switch o.kind {
	case scheduler.OpFold:
		return fmt.Sprintf("fold(%s,%d,%q)", o.set, o.pat, o.key)
	case scheduler.OpKeyErr:
		return fmt.Sprintf("keyErr(%s,%d)", o.set, o.pat)
	case scheduler.OpTouch:
		return fmt.Sprintf("touch(%s)", o.set)
	default:
		return fmt.Sprintf("hits(%s,%b)", o.set, o.pats)
	}
}

func cmpOps(a, b obsOp) int { return strings.Compare(a.String(), b.String()) }

// observer records, per event and shard, the ops the shard was handed, and
// every slab it saw them in.
type observer struct {
	mu      sync.Mutex
	ops     map[*event.Event]map[int][]obsOp
	entries map[*event.Event]map[int]int // entries per event per shard: must be 1
	slabs   map[*shardBatch]bool
	wmErr   error
}

func (o *observer) hook(shard int, b *shardBatch, e *routedEntry) {
	ops := b.ops[e.first : e.first+e.n]
	names := make([]string, len(b.layout.Slots))
	for name, slot := range b.layout.Slots {
		names[slot] = name
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.slabs[b] = true
	if o.ops[e.ev] == nil {
		o.ops[e.ev], o.entries[e.ev] = map[int][]obsOp{}, map[int]int{}
	}
	o.entries[e.ev][shard]++
	if e.hasWM && e.wm > e.ev.Time.UnixNano() && o.wmErr == nil {
		o.wmErr = fmt.Errorf("entry for event at %v stamped with a later watermark %v on a monotone stream", e.ev.Time, e.wm)
	}
	for i, seen := 1, map[int32]bool{}; i <= len(ops); i++ {
		if i == len(ops) || ops[i].Set != ops[i-1].Set {
			if seen[ops[i-1].Set] && o.wmErr == nil {
				o.wmErr = fmt.Errorf("entry for event at %v: ops not grouped by set: %+v", e.ev.Time, ops)
			}
			seen[ops[i-1].Set] = true
		}
	}
	for _, op := range ops {
		if op.Kind == scheduler.OpFold && uint32(op.Arg) != hashString(op.Key) && o.wmErr == nil {
			o.wmErr = fmt.Errorf("fold of %q carries hash %#x, want %#x", op.Key, op.Arg, hashString(op.Key))
		}
		ob := obsOp{set: names[b.layout.Sets[op.Set].Slots[0]], kind: op.Kind, pat: op.Pat, key: op.Key}
		if op.Kind == scheduler.OpHits {
			ob.pats = op.Arg
		}
		o.ops[e.ev][shard] = append(o.ops[e.ev][shard], ob)
	}
}

func compileRouting(t *testing.T, name, src string) (*engine.Query, func() (*engine.Query, error)) {
	t.Helper()
	q, err := engine.Compile(name, src, engine.CompileOptions{})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return q, func() (*engine.Query, error) { return engine.Compile(name, src, engine.CompileOptions{}) }
}

// routingWorkload builds a random stream: mostly write events (hit the write
// queries), some read events (hit the two computed-key queries), and some
// connect events that hit nothing at all.
func routingWorkload(rng *rand.Rand, n int) []*event.Event {
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	exes := []string{"nginx", "sshd", "osql.exe", "cmd.exe", "postgres", "redis-server", "curl"}
	evs := make([]*event.Event, 0, n)
	for i := 0; i < n; i++ {
		ev := &event.Event{
			Time:    base.Add(time.Duration(i) * 37 * time.Millisecond), // monotone
			AgentID: "host-1",
			Subject: event.Entity{
				Type:    event.EntityProcess,
				ExeName: exes[rng.Intn(len(exes))],
				PID:     int32(100 + rng.Intn(40)),
			},
			Amount: float64(rng.Intn(5000)),
		}
		switch rng.Intn(10) {
		case 0, 1: // read file: the computed-key queries only
			ev.Op = event.OpRead
			ev.Object = event.Entity{Type: event.EntityFile, Path: "/var/log/syslog"}
		case 2: // connect: matches no registered query
			ev.Op = event.OpConnect
			ev.Object = event.Entity{Type: event.EntityNetConn, DstIP: "10.0.0.9", DstPort: 443, Protocol: "tcp"}
		default: // write ip: the write queries
			ev.Op = event.OpWrite
			ev.Object = event.Entity{Type: event.EntityNetConn, DstIP: "10.0.0.9", DstPort: 443, Protocol: "tcp"}
		}
		evs = append(evs, ev)
	}
	return evs
}

// expectedOps computes, from the placement rules alone, the ops every shard
// must be handed for one event: shard -> ops (unordered). homes lists each
// pinned set's home shards.
func expectedOps(ev *event.Event, n int, owns func(uint32) bool, homes map[string][]int) map[int][]obsOp {
	out := map[int][]obsOp{}
	owned := func(h uint32) bool { return owns == nil || owns(h) }
	// byGroup places one by-group set's hit: pattern -> key ("" and failed
	// for a key that does not evaluate).
	type hit struct {
		pat    uint8
		key    string
		failed bool
	}
	byGroup := func(set string, hits ...hit) {
		folds := map[int]bool{}
		for _, h := range hits {
			hash := hashString(h.key)
			if !owned(hash) {
				continue // another worker's: folds on no local shard
			}
			i := int(hash % uint32(n))
			folds[i] = true
			if h.failed {
				out[i] = append(out[i], obsOp{set: set, kind: scheduler.OpKeyErr, pat: h.pat})
			} else {
				out[i] = append(out[i], obsOp{set: set, kind: scheduler.OpFold, pat: h.pat, key: h.key})
			}
		}
		for i := 0; i < n; i++ {
			if !folds[i] { // every replica that folds nothing is touched, once per set
				out[i] = append(out[i], obsOp{set: set, kind: scheduler.OpTouch})
			}
		}
	}
	switch ev.Op {
	case event.OpWrite:
		byGroup("grp-fast", hit{pat: 0, key: ev.Subject.ExeName})
		byGroup("grp-two", hit{pat: 0, key: ev.Subject.ExeName}, hit{pat: 1, key: "null"}) // p is unbound in the second pattern
		if h := hashSubject(ev); owned(h) {
			i := int(h % uint32(n))
			out[i] = append(out[i], obsOp{set: "by-event", kind: scheduler.OpHits, pats: 1})
		}
		for _, home := range homes["pinned-global"] { // no group-by: the one global group
			out[home] = append(out[home], obsOp{set: "pinned-global", kind: scheduler.OpFold, key: ""})
		}
		for _, home := range homes["pinned-distinct"] {
			out[home] = append(out[home], obsOp{set: "pinned-distinct", kind: scheduler.OpHits, pats: 1})
		}
	case event.OpRead:
		byGroup("grp-expr", hit{pat: 0, key: strconv.Itoa(int(ev.Subject.PID))})
		byGroup("grp-err", hit{pat: 0, key: "", failed: true})
	}
	return out
}

// serialStats runs the serial reference over evs and returns every query's
// counters after the final flush.
func serialStats(t *testing.T, evs []*event.Event) map[string]engine.QueryStats {
	t.Helper()
	s := scheduler.New(nil, true)
	for _, qs := range routingQueries {
		q, _ := compileRouting(t, qs.name, qs.src)
		if err := s.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range evs {
		s.Process(ev)
	}
	s.Flush()
	out := map[string]engine.QueryStats{}
	for _, qs := range routingQueries {
		q, _ := s.Query(qs.name)
		out[qs.name] = q.Stats()
	}
	return out
}

func runRoutingCase(t *testing.T, seed int64, shards int, owns func(uint32) bool) {
	rng := rand.New(rand.NewSource(seed))
	evs := routingWorkload(rng, 240+rng.Intn(120))

	obs := &observer{ops: map[*event.Event]map[int][]obsOp{}, entries: map[*event.Event]map[int]int{}, slabs: map[*shardBatch]bool{}}
	r := Start(Config{Shards: shards, Sharing: true, Owns: owns})
	r.testObserve = obs.hook
	defer r.Close()

	homes := map[string][]int{}   // pinned set -> its members' home shards
	placed := map[string][]bool{} // query -> shard -> holds a replica
	for _, qs := range routingQueries {
		primary, clone := compileRouting(t, qs.name, qs.src)
		if err := r.Add(primary, clone); err != nil {
			t.Fatalf("add %s: %v", qs.name, err)
		}
		placed[qs.name] = make([]bool, shards)
		for i, q := range r.queries[qs.name].replicas {
			placed[qs.name][i] = q != nil
			if q != nil && primary.Placement() == engine.PlacePinned && !slices.Contains(homes[qs.set], i) {
				homes[qs.set] = append(homes[qs.set], i)
			}
		}
	}
	if owns == nil && shards > 1 && len(homes["pinned-global"]) < 2 {
		t.Fatalf("the pinned set's members share one home (%v): the battery wants it spread", homes["pinned-global"])
	}
	// Random submission batch sizes keep the per-shard slabs in assorted fill
	// states across flushes.
	for i := 0; i < len(evs); {
		j := min(i+1+rng.Intn(16), len(evs))
		if err := r.SubmitBatch(evs[i:j]); err != nil {
			t.Fatalf("submit: %v", err)
		}
		i = j
	}
	if _, err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	serial := serialStats(t, evs)
	got := map[string]engine.QueryStats{}
	for _, qs := range routingQueries {
		st, ok := r.QueryStats(qs.name)
		if !ok && !slices.Contains(placed[qs.name], true) {
			continue // a pinned query whose name another worker owns: registered, no replica here
		} else if !ok {
			t.Fatalf("%s: stats missing", qs.name)
		}
		got[qs.name] = st
		if st.Events != int64(len(evs)) {
			t.Errorf("%s: events offered = %d, want %d", qs.name, st.Events, len(evs))
		}
	}
	sched := r.SchedStats()
	r.Close()
	if obs.wmErr != nil {
		t.Fatal(obs.wmErr)
	}

	// Ops, event by event and shard by shard, against the placement rules;
	// each op counts once for every member of its set placed on the shard.
	members := setMembers()
	folds, hitPats := map[string]int64{}, map[string]int64{}
	var keyErrs, probeBound int64
	for _, ev := range evs {
		want := expectedOps(ev, shards, owns, homes)
		have := obs.ops[ev]
		for i := 0; i < shards; i++ {
			w, h := want[i], have[i]
			slices.SortFunc(w, cmpOps)
			slices.SortFunc(h, cmpOps)
			if !slices.Equal(w, h) {
				t.Fatalf("event %v op=%v: shard %d of %d was handed %v, want %v", ev.Time, ev.Op, i, shards, h, w)
			}
			if len(h) > 0 && obs.entries[ev][i] != 1 {
				t.Fatalf("event %v: shard %d got %d entries for it, want its ops in one", ev.Time, i, obs.entries[ev][i])
			}
			classPats := map[string]bool{} // grp-fast, grp-two and pinned-global's keys are three classes
			for _, op := range h {
				for _, m := range members[op.set] {
					if !placed[m][i] {
						continue
					}
					switch op.kind {
					case scheduler.OpFold:
						folds[m]++
					case scheduler.OpKeyErr:
						keyErrs++
					case scheduler.OpHits:
						hitPats[m]++ // single-pattern rule queries here
					}
				}
				if op.kind == scheduler.OpFold {
					classPats[fmt.Sprint(op.set, op.pat)] = true
				}
			}
			probeBound += int64(len(classPats))
		}
	}

	// The counters the ops must add up to. Under Owns the other workers'
	// share is missing from this runtime by design, so totals are checked on
	// the unfiltered runs only.
	for name, st := range got {
		ser := serial[name]
		if st.PatternHits != folds[name]+hitPats[name] {
			t.Errorf("%s: PatternHits %d, but the shards were handed %d folds + %d rule hits for it", name, st.PatternHits, folds[name], hitPats[name])
		}
		if st.WindowsClosed != ser.WindowsClosed {
			// Also under Owns, also for grp-err: a replica that folds nothing,
			// or whose key failed, still opens (and closes) every window.
			t.Errorf("%s: %d windows closed, serial closed %d", name, st.WindowsClosed, ser.WindowsClosed)
		}
		if owns != nil {
			continue
		}
		if st.PatternHits != ser.PatternHits {
			t.Errorf("%s: PatternHits %d, serial %d", name, st.PatternHits, ser.PatternHits)
		}
		if st.EvalErrors != ser.EvalErrors {
			t.Errorf("%s: %d eval errors, serial %d (a failed key is reported once, on one replica)", name, st.EvalErrors, ser.EvalErrors)
		}
	}
	if ser := serial["grp-err"]; ser.EvalErrors == 0 || ser.PatternHits != 0 || folds["grp-err"] != 0 {
		t.Errorf("grp-err: serial %+v, %d folds: every hit's key must fail, fold nowhere and stay out of PatternHits", ser, folds["grp-err"])
	}
	if want := serial["grp-err"].EvalErrors; owns == nil && keyErrs != want {
		t.Errorf("%d keyErr ops, want %d (one per failing hit, on the owner of the empty key)", keyErrs, want)
	}
	// A shard resolves a fold's key once however many members fold it: at
	// most one probe per event per key class and pattern it was handed.
	if sched.GroupProbes == 0 || sched.GroupProbes > probeBound {
		t.Errorf("shards probed their directories %d times; the ops they were handed bound it at %d", sched.GroupProbes, probeBound)
	}

	// Every slab a shard saw has been recycled by now: nothing may linger in
	// it, used part or not.
	for b := range obs.slabs {
		if b.layout != nil || b.hasWM || len(b.entries) != 0 || len(b.ops) != 0 {
			t.Fatalf("recycled slab keeps its header: %+v", b)
		}
		for _, e := range b.entries[:cap(b.entries)] {
			if e != (routedEntry{}) {
				t.Fatalf("recycled slab retains an entry: %+v", e)
			}
		}
		for _, op := range b.ops[:cap(b.ops)] {
			if op != (scheduler.Op{}) {
				t.Fatalf("recycled slab retains an op: %+v", op)
			}
		}
	}
}

// TestRoutingOwnershipProperty drives the battery over pinned seeds and then
// through testing/quick: each seed produces a random workload, checked at
// every shard width and, at three of them, under a Config.Owns that keeps
// only the lower half of the ownership hash space (a two-worker cluster's
// first worker). quick's seeds are fresh per run, so their subtests are
// named by draw ("fresh=N") and the seed is logged and reported by quick.
func TestRoutingOwnershipProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 8}
	if testing.Short() {
		cfg.MaxCount = 2
	}
	lowerHalf := func(h uint32) bool { return h < 1<<31 }
	check := func(label string, seed int64) bool {
		ok := true
		for _, shards := range []int{1, 2, 3, 8, 96} {
			ok = ok && t.Run(fmt.Sprintf("%s/shards=%d", label, shards), func(t *testing.T) {
				t.Logf("routing seed = %d", seed)
				runRoutingCase(t, seed, shards, nil)
			})
		}
		for _, shards := range []int{1, 3, 8} {
			ok = ok && t.Run(fmt.Sprintf("%s/shards=%d/owns=lower-half", label, shards), func(t *testing.T) {
				t.Logf("routing seed = %d", seed)
				runRoutingCase(t, seed, shards, lowerHalf)
			})
		}
		return ok
	}
	for _, seed := range []int64{
		-8367202753234444823, -7236668004753720837, -6329415764616861035, -1491666216299030883,
		2056756604866760308, 2677700985787163140, 3969842412928265295, 5418801462237843609,
	} {
		check(fmt.Sprintf("seed=%d", seed), seed)
	}
	draws := 0
	property := func(seed int64) bool {
		draws++
		return check(fmt.Sprintf("fresh=%d", draws), seed)
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestNoHitSetReachesAShard walks the type of everything a shard channel
// carries: a hit set is resolved on the routing goroutine and lives in the
// evaluation scheduler's scratch, so no field path from an envelope may lead
// to one.
func TestNoHitSetReachesAShard(t *testing.T) {
	hitSet := reflect.TypeOf(scheduler.HitSet{})
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if typ == hitSet {
			t.Errorf("a shard can reach a scheduler.HitSet through %s", path)
		}
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(typ.Elem(), path)
		case reflect.Map:
			walk(typ.Key(), path)
			walk(typ.Elem(), path)
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		}
	}
	walk(reflect.TypeOf(envelope{}), "envelope")
	if !seen[reflect.TypeOf(scheduler.Op{})] || !seen[reflect.TypeOf(routedEntry{})] {
		t.Fatal("the walk did not reach the routed entry format")
	}
}
