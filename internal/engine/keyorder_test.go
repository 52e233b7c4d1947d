package engine

// The fence of a close's key order: a query keeps its group runtimes in
// ascending key order from close to close (byKey), sorting only the keys a
// close meets for the first time and merging them in, so the order must
// survive every way the runtimes change — a close creating, quieting and
// evicting groups, a restore from one blob or from a multi-shard capture
// folded blob by blob, and a hot-swap carry.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"saql/internal/conformance"
	"saql/internal/event"
	"saql/internal/window"
)

// keyOrderSrc alerts once for every present group of every close, so a
// close's alerts list the groups it visited, in the order it visited them.
const keyOrderSrc = `proc p write ip i as e #time(10 s)
state[2] ss { n := count(e) } group by i.dstip
alert ss.n > 0
return i.dstip, ss.n`

// keyOrderIdle is the test's GroupIdleWindows: a group quiet for three
// windows is evicted.
const keyOrderIdle = 2

// keyOrderWindows draws the stream's windows, each a list of destination
// keys with one event apiece. Every window brings back some known keys and
// adds new ones that sort before ("c-…", each below the last), between
// ("d-…", random) and after ("e-…", each above the last) the known keys;
// known keys fall quiet long enough to be evicted and then return. Window
// `empty` has no events (the test opens it by a touch), and window `spray`
// adds 2,000 new keys at once.
func keyOrderWindows(rng *rand.Rand, n, empty, spray int) [][]string {
	var known []string
	out := make([][]string, n)
	for w := range out {
		if w == empty {
			continue
		}
		var keys []string
		for _, k := range known {
			// About a third of the known keys sit out each window, so some
			// stay quiet past the idle limit and return after eviction.
			if rng.Intn(3) != 0 {
				keys = append(keys, k)
			}
		}
		fresh := []string{fmt.Sprintf("c-%04d", 9999-w), fmt.Sprintf("e-%04d", w)}
		between := 1 + rng.Intn(6)
		if w == spray {
			between = 2000
		}
		for range between {
			fresh = append(fresh, fmt.Sprintf("d-%07d", rng.Intn(10_000_000)))
		}
		for _, k := range fresh {
			if !slices.Contains(known, k) && !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
		// Forget some keys from the pool for good: they stay quiet until
		// evicted.
		known = known[:0:0]
		for _, k := range keys {
			if rng.Intn(8) != 0 {
				known = append(known, k)
			}
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		out[w] = keys
	}
	return out
}

// checkKeyOrder fails unless q's kept list is strictly ascending by key and
// lists exactly the runtimes of its groups table.
func checkKeyOrder(t *testing.T, q *Query, when string) {
	t.Helper()
	if len(q.byKey) != len(q.groups) {
		t.Fatalf("%s: kept list holds %d runtimes, groups table %d", when, len(q.byKey), len(q.groups))
	}
	for i, rt := range q.byKey {
		if i > 0 && q.byKey[i-1].key >= rt.key {
			t.Fatalf("%s: kept list not strictly ascending at %d: %q then %q", when, i, q.byKey[i-1].key, rt.key)
		}
		if q.groups[rt.key] != rt {
			t.Fatalf("%s: kept list's %q is not the groups table's runtime", when, rt.key)
		}
	}
}

// restoreShards splits q's state across n shard replicas by key, captures
// each replica's blob and folds the blobs one by one into a fresh replica,
// as a restore of an n-shard checkpoint does.
func restoreShards(t *testing.T, q *Query, n int) *Query {
	t.Helper()
	blob, err := q.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	folded := q.Replica()
	for s := range n {
		shard := q.Replica()
		keep := func(key string) bool { return int(window.HashKey(key))%n == s }
		if err := shard.RestoreState(blob, keep, s == 0); err != nil {
			t.Fatal(err)
		}
		checkKeyOrder(t, shard, fmt.Sprintf("shard %d of %d", s, n))
		part, err := shard.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		if err := folded.RestoreState(part, nil, s == 0); err != nil {
			t.Fatal(err)
		}
		checkKeyOrder(t, folded, fmt.Sprintf("after folding %d of %d shard blobs", s+1, n))
	}
	return folded
}

// TestCloseKeepsKeyOrder drives one query through a stream whose keys land
// before, between and after the known ones, go quiet, are evicted and come
// back, through an empty window and a 2,000-key spray, moving its state
// through restores and carries on the way. After every step the kept list
// is strictly ascending and equals the groups table's keys, and every close
// visits exactly its window's keys in ascending order.
func TestCloseKeepsKeyOrder(t *testing.T) {
	const windows, empty, spray = 40, 11, 23
	for _, sd := range conformance.Seeds(t, 1, 2, 3) {
		t.Run(sd.Label, func(t *testing.T) {
			rng := rand.New(rand.NewSource(sd.Value))
			plan := keyOrderWindows(rng, windows, empty, spray)
			q, err := Compile("key-order", keyOrderSrc, CompileOptions{GroupIdleWindows: keyOrderIdle})
			if err != nil {
				t.Fatal(err)
			}
			report := func(err error) { t.Fatalf("runtime error: %v", err) }
			var alerts []*Alert
			evicted := 0
			closes := int64(0)
			step := func(e *event.Event) {
				before := len(q.groups)
				alerts = append(alerts, q.Process(e, report)...)
				if n := q.stats.WindowsClosed; n != closes {
					closes = n
					checkKeyOrder(t, q, fmt.Sprintf("close %d", n))
					if len(q.groups) < before {
						evicted++
					}
				}
			}
			for w, keys := range plan {
				start := t0.Add(time.Duration(w) * 10 * time.Second)
				if w == empty {
					q.winMgr.Touch(start.Add(time.Second))
				}
				for k, key := range keys {
					at := start.Add(time.Duration(k) * (10 * time.Second) / time.Duration(len(keys)+1))
					step(ev(at, "db-1", event.Process("svc.exe", 10), event.OpWrite,
						event.NetConn("10.0.0.2", 1433, key, 443), 100))
				}
				// Move the state at a window's start, with the window's hits
				// still logged.
				switch {
				case w%9 == 4:
					blob, err := q.EncodeState()
					if err != nil {
						t.Fatal(err)
					}
					r := q.Replica()
					if err := r.RestoreState(blob, nil, true); err != nil {
						t.Fatal(err)
					}
					checkKeyOrder(t, r, fmt.Sprintf("window %d: restored from one blob", w))
					if again, _ := r.EncodeState(); !bytes.Equal(again, blob) {
						t.Fatalf("window %d: the restored replica re-encodes differently", w)
					}
					q = r
				case w%9 == 6:
					q = restoreShards(t, q, 1+rng.Intn(4))
				case w%9 == 8:
					r := q.Replica()
					if err := r.CarryStateFrom(q); err != nil {
						t.Fatal(err)
					}
					checkKeyOrder(t, r, fmt.Sprintf("window %d: carried", w))
					q = r
				}
			}
			alerts = append(alerts, q.soloFlush(report)...)
			checkKeyOrder(t, q, "flush")
			if evicted == 0 {
				t.Fatal("no close evicted a group: the stream must exercise eviction")
			}

			// Every close visited exactly its window's keys, in ascending
			// order.
			byEnd := map[int64][]string{}
			for _, a := range alerts {
				byEnd[a.EventTime.UnixNano()] = append(byEnd[a.EventTime.UnixNano()], a.GroupKey)
			}
			for w, keys := range plan {
				got := byEnd[t0.Add(time.Duration(w+1)*10*time.Second).UnixNano()]
				if !slices.IsSortedFunc(got, strings.Compare) || len(slices.Compact(slices.Clone(got))) != len(got) {
					t.Fatalf("window %d: the close visited its groups out of key order: %v", w, got)
				}
				if len(got) != len(keys) {
					t.Fatalf("window %d: the close visited %d groups, the window had %d", w, len(got), len(keys))
				}
			}
			t.Logf("%d closes, %d alerts, %d closes evicted, %d groups at the end", closes, len(alerts), evicted, len(q.groups))
		})
	}
}
