package runtime

// Partitioned routing: the one delivery path between the router's shared
// evaluation and the shards' state folding, at every shard count. The
// evaluation scheduler *resolves* each hit once per variant set — the set's
// hit list and, for a stateful set, each hit's group key, hash and failure
// (scheduler.HitSet.Sets) — the router decides only *ownership*, which shard
// a hit reaches, and a shard is the only place it is *folded*; serial Process
// folds the same resolved sets through the same code, as one shard owning
// everything. An evaluated event's hit set never leaves the routing
// goroutine: routeEvent turns it into ops (scheduler.Op) appended to the slabs of exactly the shards
// that have something to do, by the same 32-bit FNV ownership hashing that
// checkpoint re-split and the distributed cluster's Config.Owns already
// define. The unit it routes is the variant set (scheduler.Layout.Sets): a
// scheduler group's master and its equal dependents of one key class and
// placement, whose hit sets are one slice by construction — the window-length
// variants an analyst keeps of one detection. One op per set reaches a shard,
// and the shard hands it to the set's local members (Scheduler.Apply): a
// stateful set's op to the set's slice log, a rule set's to each member.
//
//   - a stateful set's hit becomes fold(set, pattern, key) on the one shard
//     that owns the key — hash(key) mod shards for a by-group set — or on each
//     home shard holding a member of a pinned one. The key was evaluated by a
//     member's compiled key programs in the evaluation scheduler's resolve
//     step, once per event per hit pattern per *key class* (the scheduler's:
//     queries whose key programs are identical), and hashed once; the op
//     carries the hash,
//     which the shard's class directory probes with to find the group id the
//     slice log records the hit under, and every member folds it by when the
//     log seals. A key that fails to evaluate routes as the empty key, as
//     keyErr(set, pattern): its one owner reports the failure, once per member.
//   - every other shard holding the replicas of a hit by-group set gets
//     touch(set): window existence and close cadence must be identical on all
//     replicas (alert history backfill and checkpoint re-split depend on it),
//     and a replica that folds nothing would otherwise never open the window.
//     Every instant of a slice of the set's window specs (window.Slice) opens
//     the same windows, so a shard needs one fold, key error or touch of the
//     set per slice: the router remembers the slice of the last one it sent
//     each shard (partitioner.cover) and touches only for a hit outside it,
//     and forgets at every control and layout change, where a member may
//     have been paused, resumed, added or swapped in. On the shard a touch is
//     a flag on the set's log slice, and the members open the windows once,
//     at the seal.
//   - a rule set's hits become hits(set, pattern set) on each home shard
//     holding a member (pinned) or on the shard owning the event's subject
//     entity (by-event).
//
// Instead of a channel send per event, entries accumulate into per-shard
// slabs (entries plus their ops, recycled through a sync.Pool and made at the
// size they are flushed at) flushed on a size threshold, when the ingest queue
// goes idle, and always before a control envelope, so control operations —
// including checkpoint barriers — cut the stream at one consistent point even
// though shards see disjoint event subsets.
//
// Watermark stamps give every shard what seeing every event would: each entry
// carries the stream watermark through its event (event.Watermark, as serial
// Process stamps it), which the slice log of every set the entry names
// observes before its ops; every flushed batch carries the router's running
// watermark, which every stateful set observes at the batch boundary
// (AdvanceAll). A log seals the moment what it observes reaches the end of
// its slice, so these reproduce the serial engine at every point a window
// closes or a hit is judged late, and close windows promptly on shards that
// received no events.

import (
	"slices"
	"sync"
	"time"

	"saql/internal/engine"
	"saql/internal/event"
	"saql/internal/scheduler"
	"saql/internal/window"
)

// flushThreshold and opsThreshold cap how many entries and ops a per-shard
// buffer accumulates before it is flushed regardless of queue pressure,
// bounding both batch latency and buffer memory under sustained load. With
// one op per variant set and a touch per slice, an entry carries one or two
// ops (a qs-hot slab flushes full at 256 entries and ≈ 300 ops), so a slab is
// made with room for opsThreshold and almost never grows.
const (
	flushThreshold = 256
	opsThreshold   = 3 * flushThreshold / 2
)

// routedEntry is one event's work for one shard: ops[first:first+n] of the
// slab that holds it. wm is the stream watermark through this event, in unix
// nanoseconds (24 bytes an entry).
type routedEntry struct {
	ev       *event.Event
	wm       int64
	first, n int32
}

// shardBatch is one flushed slab of routed entries and their ops, resolved
// against layout (registry changes flush first, so a slab never spans two).
// wm is the router's running stream watermark at flush time (every flush has
// one: an entry or an empty flush needs a routed event); the receiving
// shard applies it to every active query after the entries
// (scheduler.AdvanceAll), which is the partitioned replacement for "every
// shard sees every event's time".
type shardBatch struct {
	entries []routedEntry
	ops     []scheduler.Op
	layout  *scheduler.Layout
	wm      time.Time
	// openSeq is the partitioner's event sequence number of the last entry:
	// while it is current, that entry is still taking ops.
	openSeq uint64
}

// routeKind is what the router does with a hit of one query.
type routeKind uint8

const (
	routeNowhere   routeKind = iota // pinned, and another cluster worker holds the replica
	routeGroupFold                  // stateful by-group: fold on the key's owner, touch elsewhere
	routeHomeFold                   // stateful pinned: fold on the home shard
	routeHomeHits                   // pinned rule query: hits to the home shard
	routeEventHits                  // by-event rule query: hits to the event's owner
)

// routeInfo is the router's per-query record, maintained by the routing
// goroutine as control envelopes pass through it — the same stream point at
// which the evaluation scheduler's layout changes, so the set cache below can
// never pair a stale placement with a fresh hit set.
type routeInfo struct {
	kind routeKind
	home int // routeHome*: the shard holding the one replica
}

// routeSet is one variant set of the current layout as the router routes it:
// how, and where its pinned members live.
type routeSet struct {
	kind  routeKind
	homes []int // routeHome*: the shards holding a member, ascending
}

// partitioner holds the routing goroutine's confined state. Only the router
// (and Close's final drain, which runs after the router exits) touches it.
type partitioner struct {
	r    *Runtime
	n    int
	owns func(uint32) bool

	routes  map[string]*routeInfo
	sets    []routeSet // layout set index -> how to route it, cached per layout
	setsFor *scheduler.Layout

	bufs   []*shardBatch
	lastWM []time.Time // watermark last flushed to each shard

	wm event.Watermark // the stream watermark: every event routed so far

	seq    uint64   // events routed with hits: stamps open entries
	mark   uint64   // by-group sets routed: stamps folded
	folded []uint64 // folded[i] == mark: shard i folds for the set being routed
	// cover[set*n+i] is the slice of a by-group set's specs (window.Slice) in
	// which shard i last got a fold, a key error or a touch of the set: every
	// instant of it opens the windows that op opened, so a hit inside it needs
	// no touch there. Forgotten at every control and layout change.
	cover []slice
	pool  sync.Pool
}

// slice is [start, end) in Unix nanoseconds; the zero slice holds no instant.
type slice struct{ start, end int64 }

//saql:hotpath
func (s slice) holds(t int64) bool { return s.start <= t && t < s.end }

func newPartitioner(r *Runtime, wm event.Watermark) *partitioner {
	p := &partitioner{
		r:      r,
		wm:     wm,
		n:      len(r.shards),
		owns:   r.cfg.Owns,
		routes: map[string]*routeInfo{},
		bufs:   make([]*shardBatch, len(r.shards)),
		lastWM: make([]time.Time, len(r.shards)),
		folded: make([]uint64, len(r.shards)),
	}
	p.pool.New = func() any {
		// Made once at the size it is flushed at: emit flushes a slab before
		// an entry would start past either threshold, so only an entry that
		// itself straddles opsThreshold ever grows ops.
		return &shardBatch{
			entries: make([]routedEntry, 0, flushThreshold),
			ops:     make([]scheduler.Op, 0, opsThreshold),
		}
	}
	for i := range p.bufs {
		p.bufs[i] = p.get()
	}
	return p
}

//saql:hotpath
func (p *partitioner) get() *shardBatch { return p.pool.Get().(*shardBatch) }

// put recycles a processed batch. Called by shard workers, hence the pool:
// entries and ops are cleared so the slab retains no event, key string or
// layout.
//
//saql:hotpath
func (p *partitioner) put(b *shardBatch) {
	clear(b.entries)
	clear(b.ops)
	*b = shardBatch{entries: b.entries[:0], ops: b.ops[:0]}
	p.pool.Put(b)
}

// applyCtl keeps the routing table in lockstep with the evaluation
// scheduler: both mutate at the moment the control envelope passes through
// the routing goroutine, before any later event.
func (p *partitioner) applyCtl(c *control) {
	switch c.kind {
	case ctlAdd, ctlSwap:
		ri := &routeInfo{}
		switch placement, stateful := c.eval.Placement(), c.eval.Stateful(); {
		case placement == engine.PlaceByGroup:
			ri.kind = routeGroupFold
		case placement == engine.PlaceByEvent:
			ri.kind = routeEventHits
		default:
			for i, q := range c.replicas {
				if q != nil {
					ri.home = i
					ri.kind = routeHomeHits
					if stateful {
						ri.kind = routeHomeFold
					}
				}
			}
		}
		p.routes[c.name] = ri
	case ctlRemove:
		delete(p.routes, c.name)
	}
	// Re-resolve against the next layout, forgetting every touch cover: a
	// member paused, resumed, added or swapped here has not seen the ops
	// before it.
	p.setsFor = nil
}

// resolveSets refreshes the set cache for a hit-set layout. The variant sets
// are the evaluation scheduler's (scheduler.Layout.Sets); the router only
// pairs them with placements. Layouts change only on registry mutations, so
// this is never per-event work.
func (p *partitioner) resolveSets(layout *scheduler.Layout) {
	if p.setsFor == layout {
		return
	}
	names := make([]string, len(layout.Slots))
	for name, slot := range layout.Slots {
		names[slot] = name
	}
	p.sets = make([]routeSet, len(layout.Sets))
	for i, vs := range layout.Sets {
		rs := &p.sets[i]
		for _, slot := range vs.Slots {
			ri := p.routes[names[slot]]
			switch ri.kind {
			case routeHomeFold, routeHomeHits:
				if !slices.Contains(rs.homes, ri.home) {
					rs.homes = append(rs.homes, ri.home)
				}
				rs.kind = ri.kind
			case routeNowhere:
			default:
				rs.kind = ri.kind // by-group and by-event sets: every member alike
			}
		}
		slices.Sort(rs.homes)
	}
	p.cover = make([]slice, len(layout.Sets)*p.n)
	p.setsFor = layout
}

// emit appends op to shard i's entry for the current event, opening the entry
// with the event's first op there — in a fresh slab if the previous events
// filled this one (an entry never straddles two).
//
//saql:hotpath
func (p *partitioner) emit(i int, ev *event.Event, wm int64, op scheduler.Op) {
	b := p.bufs[i]
	if b.openSeq != p.seq {
		if len(b.entries) >= flushThreshold || len(b.ops) >= opsThreshold {
			p.flushShard(i)
			b = p.bufs[i]
		}
		b.openSeq = p.seq
		b.layout = p.setsFor
		b.entries = append(b.entries, routedEntry{ev: ev, wm: wm, first: int32(len(b.ops))})
	}
	b.ops = append(b.ops, op)
	b.entries[len(b.entries)-1].n++
}

// routeEvent routes one evaluated event's resolved sets (HitSet.Sets) into
// ops on the per-shard slabs they need to reach, set by set, so an entry's
// ops come grouped by set. Events that matched nothing buffer nowhere: the
// next flush's batch watermark is all any shard needs from them.
//
//saql:hotpath
func (p *partitioner) routeEvent(ev *event.Event, hs *scheduler.HitSet) {
	wm := p.wm.Through(ev.Time).UnixNano()
	if hs == nil {
		return
	}
	hs.AssertLive()
	p.resolveSets(hs.Layout)
	p.seq++
	eventOwner := -2 // by-event owner shard: -2 not yet hashed, -1 another worker's
	for k := range hs.Sets {
		sh := &hs.Sets[k]
		switch rs := &p.sets[sh.Set]; rs.kind {
		case routeGroupFold:
			p.mark++
			t := ev.Time.UnixNano()
			cover := p.cover[int(sh.Set)*p.n:][:p.n]
			var sl slice // t's slice, once a shard's cover needs it
			for j := range sh.Hits {
				// A key the cluster-level Owns filter gives to another worker
				// folds on no local shard; the local replicas still touch.
				if h := sh.Keys[j].Hash; p.owns == nil || p.owns(h) {
					i := int(h % uint32(p.n))
					p.emit(i, ev, wm, sh.FoldOp(j))
					p.folded[i] = p.mark
					if !cover[i].holds(t) {
						sl = p.sliceOf(sl, sh.Set, t)
						cover[i] = sl
					}
				}
			}
			for i := range p.folded {
				if p.folded[i] != p.mark && !cover[i].holds(t) {
					p.emit(i, ev, wm, scheduler.Op{Kind: scheduler.OpTouch, Set: sh.Set})
					sl = p.sliceOf(sl, sh.Set, t)
					cover[i] = sl
				}
			}
		case routeHomeFold:
			for j := range sh.Hits {
				op := sh.FoldOp(j)
				for _, home := range rs.homes {
					p.emit(home, ev, wm, op)
				}
			}
		case routeHomeHits:
			op := sh.HitsOp()
			for _, home := range rs.homes {
				p.emit(home, ev, wm, op)
			}
		case routeEventHits:
			if eventOwner == -2 {
				eventOwner = -1
				if h32 := hashSubject(ev); p.owns == nil || p.owns(h32) {
					eventOwner = int(h32 % uint32(p.n))
				}
			}
			if eventOwner >= 0 {
				p.emit(eventOwner, ev, wm, sh.HitsOp())
			}
		}
	}
}

// sliceOf returns sl when it holds t, else the slice of set's specs holding
// t: the one slice the hit of a by-group set computes, and only when a
// shard's cover lies elsewhere.
//
//saql:hotpath
func (p *partitioner) sliceOf(sl slice, set int32, t int64) slice {
	if sl.holds(t) {
		return sl
	}
	sl.start, sl.end = window.Slice(p.setsFor.Sets[set].Specs, t)
	return sl
}

// flushShard seals shard i's buffer with the running stream watermark and
// hands it to the shard's channel (one send per batch, not per event).
//
//saql:ctlpath
//saql:hotpath
func (p *partitioner) flushShard(i int) {
	b := p.bufs[i]
	b.wm, _ = p.wm.Time()
	p.bufs[i] = p.get()
	p.lastWM[i] = b.wm
	p.r.shards[i].in <- envelope{batch: b}
}

// flushAll drains every per-shard buffer, including watermark-only batches
// for shards whose buffers are empty but whose queries must still observe
// that time has passed (windows close promptly even on shards owning none of
// the recent events). Called when the ingest queue goes idle and before
// every control envelope — the latter is what keeps checkpoint barriers a
// consistent cut: everything routed before the barrier is in a shard channel
// before the barrier is, and channels are FIFO.
//
//saql:hotpath
func (p *partitioner) flushAll() {
	wm, ok := p.wm.Time()
	for i := range p.bufs {
		if len(p.bufs[i].entries) > 0 || ok && wm.After(p.lastWM[i]) {
			p.flushShard(i)
		}
	}
}

// processBatch applies one routed batch to a shard: each entry's ops run
// against the shard's replicas, and the batch watermark advances every active
// query. Runs on the shard's worker goroutine.
//
//saql:hotpath
func (r *Runtime) processBatch(s *shard, b *shardBatch) {
	for i := range b.entries {
		e := &b.entries[i]
		if r.testObserve != nil {
			r.testObserve(s.id, b, e)
		}
		if alerts := s.sched.Apply(b.layout, e.ev, time.Unix(0, e.wm), b.ops[e.first:e.first+e.n]); len(alerts) > 0 {
			r.cfg.Fan.Publish(alerts)
		}
	}
	if alerts := s.sched.AdvanceAll(b.wm); len(alerts) > 0 {
		r.cfg.Fan.Publish(alerts)
	}
	r.part.put(b)
}
