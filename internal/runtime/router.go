package runtime

// Partitioned routing: the one delivery path between the router's shared
// evaluation and the shards' state folding, at every shard count. The router
// is the only place a hit is *resolved* — whose state it touches, under which
// group key, on which shard — and a shard the only place it is *folded*. An
// evaluated event's hit set never leaves the routing goroutine: routeEvent
// turns it into ops (scheduler.Op) appended to the slabs of exactly the shards
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
//     home shard holding a member of a pinned one. The key is evaluated by a
//     member's compiled key programs on the router's evaluation replica, once
//     per event per hit pattern per *key class* (the scheduler's: queries whose
//     key programs are identical), and hashed once; the op carries the hash,
//     which the shard's class directory probes with to find the group id the
//     slice log records the hit under, and every member folds it by when the
//     log seals. A key that fails to evaluate routes as the empty key, as
//     keyErr(set, pattern): its one owner reports the failure, once per member.
//   - every other shard holding the replicas of a hit by-group set gets
//     touch(set): window existence and close cadence must be identical on all
//     replicas (alert history backfill and checkpoint re-split depend on it),
//     and a replica that folds nothing would otherwise never open the window.
//     On the shard a touch is a flag on the set's slice: every instant of a
//     slice opens the same windows, so the members open them once, at the
//     seal.
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
// carries the stream watermark the router observed before its event, which
// the slice log of every set the entry names observes before its ops; every
// flushed batch carries the router's running watermark, which every stateful
// set observes at the batch boundary (AdvanceAll). A log seals — folds its
// hits into its members and advances them — the moment what it observes
// reaches the end of its slice, so these reproduce the serial engine's
// per-query watermark at every point a window closes or a hit is judged late,
// and close windows promptly on shards that received no events.
//
// docs/architecture.md records the one deliberate divergence from the serial
// reference (a query resumed from pause on an out-of-order stream).

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"saql/internal/engine"
	"saql/internal/event"
	"saql/internal/scheduler"
)

// flushThreshold and opsThreshold cap how many entries and ops a per-shard
// buffer accumulates before it is flushed regardless of queue pressure,
// bounding both batch latency and buffer memory under sustained load. With
// one op per variant set, an entry carries one or two ops (a qs-hot slab
// flushes full at 256 entries and ≈ 320 ops), so a slab is made with room for
// opsThreshold and almost never grows.
const (
	flushThreshold = 256
	opsThreshold   = 3 * flushThreshold / 2
)

// routedEntry is one event's work for one shard: ops[first:first+n] of the
// slab that holds it. wm is the stream watermark the router had observed
// before this event, in unix nanoseconds (32 bytes an entry, not 48).
type routedEntry struct {
	ev       *event.Event
	wm       int64
	first, n int32
	hasWM    bool
}

// shardBatch is one flushed slab of routed entries and their ops, resolved
// against layout (registry changes flush first, so a slab never spans two).
// wm is the router's running stream watermark at flush time; the receiving
// shard applies it to every active query after the entries
// (scheduler.AdvanceAll), which is the partitioned replacement for "every
// shard sees every event's time".
type shardBatch struct {
	entries []routedEntry
	ops     []scheduler.Op
	layout  *scheduler.Layout
	wm      time.Time
	hasWM   bool
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
	kind  routeKind
	home  int // routeHome*: the shard holding the one replica
	evalQ *engine.Query
}

// routeSet is one variant set of the current layout as the router routes it:
// how, where its pinned members live, and its members' slots and evaluation
// replicas — any member's hits are the set's, and any member's key programs
// its key class's.
type routeSet struct {
	kind    routeKind
	homes   []int // routeHome*: the shards holding a member, ascending
	members []routeMember
	// memo is the key class's current-event keys by pattern, one backing
	// array per class: every set of a class reads and writes the same one.
	memo []resolvedKey
}

type routeMember struct {
	slot int
	q    *engine.Query // the evaluation replica
}

// resolvedKey is one pattern's group key for the event numbered seq.
type resolvedKey struct {
	seq    uint64
	key    string
	hash   uint32
	failed bool
}

// partitioner holds the routing goroutine's confined state. Only the router
// (and Close's final drain, which runs after the router exits) touches it.
type partitioner struct {
	r    *Runtime
	n    int
	owns func(uint32) bool

	routes  map[string]*routeInfo
	sets    []routeSet // layout set index -> how to route it, cached per layout
	setOf   []int      // layout slot -> its set's index
	routed  []uint64   // routed[set] == seq: the set is routed for the current event
	setsFor *scheduler.Layout
	memos   map[int32][]resolvedKey // key class id -> its memo

	bufs   []*shardBatch
	lastWM []time.Time // watermark last flushed to each shard

	streamWM time.Time
	hasWM    bool

	seq    uint64   // events routed with hits: stamps open entries and key memos
	mark   uint64   // by-group sets routed: stamps folded
	folded []uint64 // folded[i] == mark: shard i folds for the set being routed
	// keyEvals counts key-program evaluations (memo misses); read by
	// SchedStats from other goroutines.
	keyEvals atomic.Int64
	pool     sync.Pool
}

func newPartitioner(r *Runtime) *partitioner {
	p := &partitioner{
		r:      r,
		n:      len(r.shards),
		owns:   r.cfg.Owns,
		routes: map[string]*routeInfo{},
		memos:  map[int32][]resolvedKey{},
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
		ri := &routeInfo{evalQ: c.eval}
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
	p.setsFor = nil // registry changed: re-resolve against the next layout
}

// resolveSets refreshes the set cache for a hit-set layout. The variant sets
// and key classes are the evaluation scheduler's (scheduler.Layout.Sets); the
// router only pairs them with placements and gives each class a memo, kept
// across layouts while the class lives. Layouts change only on registry
// mutations, so this is never per-event work.
func (p *partitioner) resolveSets(layout *scheduler.Layout) {
	if p.setsFor == layout {
		return
	}
	names := make([]string, len(layout.Slots))
	for name, slot := range layout.Slots {
		names[slot] = name
	}
	memos := map[int32][]resolvedKey{}
	p.sets = make([]routeSet, len(layout.Sets))
	p.setOf = make([]int, len(layout.Slots))
	p.routed = make([]uint64, len(layout.Sets))
	for i, vs := range layout.Sets {
		rs := &p.sets[i]
		for _, slot := range vs.Slots {
			p.setOf[slot] = i
			ri := p.routes[names[slot]]
			rs.members = append(rs.members, routeMember{slot: slot, q: ri.evalQ})
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
		if vs.Class >= 0 {
			memo, ok := memos[vs.Class]
			if !ok {
				if memo, ok = p.memos[vs.Class]; !ok {
					memo = make([]resolvedKey, len(rs.members[0].q.Patterns()))
				}
				memos[vs.Class] = memo
			}
			rs.memo = memo
		}
	}
	p.memos = memos
	p.setsFor = layout
}

// key returns the group key ev yields as a hit of pattern hi for the members
// of set rs and every other set of its key class, evaluating and hashing it
// the first time the current event asks.
//
//saql:hotpath
func (p *partitioner) key(rs *routeSet, hi int, ev *event.Event) *resolvedKey {
	k := &rs.memo[hi]
	if k.seq != p.seq {
		key, err := rs.members[0].q.HitKey(hi, ev)
		*k = resolvedKey{seq: p.seq, key: key, hash: hashString(key), failed: err != nil}
		p.keyEvals.Add(1)
	}
	return k
}

// emit appends op to shard i's entry for the current event, opening the entry
// with the event's first op there — in a fresh slab if the previous events
// filled this one (an entry never straddles two).
//
//saql:hotpath
func (p *partitioner) emit(i int, ev *event.Event, wm int64, hasWM bool, op scheduler.Op) {
	b := p.bufs[i]
	if b.openSeq != p.seq {
		if len(b.entries) >= flushThreshold || len(b.ops) >= opsThreshold {
			p.flushShard(i)
			b = p.bufs[i]
		}
		b.openSeq = p.seq
		b.layout = p.setsFor
		b.entries = append(b.entries, routedEntry{ev: ev, wm: wm, hasWM: hasWM, first: int32(len(b.ops))})
	}
	b.ops = append(b.ops, op)
	b.entries[len(b.entries)-1].n++
}

// foldOp is the op a hit of pattern hi becomes for a stateful set on the
// shard owning its key k.
//
//saql:hotpath
func foldOp(set, hi int, k *resolvedKey) scheduler.Op {
	if k.failed {
		return scheduler.Op{Kind: scheduler.OpKeyErr, Set: int32(set), Pat: uint8(hi)}
	}
	return scheduler.Op{Kind: scheduler.OpFold, Set: int32(set), Pat: uint8(hi), Key: k.key, Arg: uint64(k.hash)}
}

// hitsOp is the op a rule set's hit set h becomes.
//
//saql:hotpath
func hitsOp(set int, h []int) scheduler.Op {
	op := scheduler.Op{Kind: scheduler.OpHits, Set: int32(set)}
	for _, hi := range h {
		op.Arg |= 1 << uint(hi)
	}
	return op
}

// hits returns the hit set of rs: that of its first active member that has
// one. The members' hit sets are the same slice by construction, except that
// the evaluation leaves a paused dependent's empty; a set with no active
// member is not routed.
//
//saql:hotpath
func (rs *routeSet) hits(hs *scheduler.HitSet) []int {
	for _, m := range rs.members {
		if h := hs.Hits[m.slot]; len(h) > 0 && !m.q.Paused() {
			return h
		}
	}
	return nil
}

// routeEvent resolves one evaluated event into ops on the per-shard slabs it
// needs to reach, once per variant set: at the first of the set's slots that
// holds hits, so an entry's ops come grouped by set. Events that matched
// nothing buffer nowhere: the next flush's batch watermark is all any shard
// needs from them.
//
//saql:hotpath
func (p *partitioner) routeEvent(ev *event.Event, hs *scheduler.HitSet) {
	wm, hasWM := p.streamWM.UnixNano(), p.hasWM
	if !p.hasWM || ev.Time.After(p.streamWM) {
		p.streamWM = ev.Time
		p.hasWM = true
	}
	if hs == nil {
		return
	}
	hs.AssertLive()
	p.resolveSets(hs.Layout)
	p.seq++
	eventOwner := -2 // by-event owner shard: -2 not yet hashed, -1 another worker's
	for slot, h := range hs.Hits {
		if len(h) == 0 {
			continue
		}
		si := p.setOf[slot]
		if p.routed[si] == p.seq {
			continue // routed at an earlier member's slot
		}
		p.routed[si] = p.seq
		rs := &p.sets[si]
		if rs.kind == routeNowhere {
			continue
		}
		if h = rs.hits(hs); len(h) == 0 {
			continue
		}
		switch rs.kind {
		case routeGroupFold:
			p.mark++
			for _, hi := range h {
				// A key the cluster-level Owns filter gives to another worker
				// folds on no local shard; the local replicas still touch.
				if k := p.key(rs, hi, ev); p.owns == nil || p.owns(k.hash) {
					i := int(k.hash % uint32(p.n))
					p.emit(i, ev, wm, hasWM, foldOp(si, hi, k))
					p.folded[i] = p.mark
				}
			}
			for i := range p.folded {
				if p.folded[i] != p.mark {
					p.emit(i, ev, wm, hasWM, scheduler.Op{Kind: scheduler.OpTouch, Set: int32(si)})
				}
			}
		case routeHomeFold:
			for _, hi := range h {
				k := p.key(rs, hi, ev)
				for _, home := range rs.homes {
					p.emit(home, ev, wm, hasWM, foldOp(si, hi, k))
				}
			}
		case routeHomeHits:
			for _, home := range rs.homes {
				p.emit(home, ev, wm, hasWM, hitsOp(si, h))
			}
		case routeEventHits:
			if eventOwner == -2 {
				eventOwner = -1
				if h32 := hashSubject(ev); p.owns == nil || p.owns(h32) {
					eventOwner = int(h32 % uint32(p.n))
				}
			}
			if eventOwner >= 0 {
				p.emit(eventOwner, ev, wm, hasWM, hitsOp(si, h))
			}
		}
	}
}

// flushShard seals shard i's buffer with the running stream watermark and
// hands it to the shard's channel (one send per batch, not per event).
//
//saql:ctlpath
//saql:hotpath
func (p *partitioner) flushShard(i int) {
	b := p.bufs[i]
	b.wm, b.hasWM = p.streamWM, p.hasWM
	p.bufs[i] = p.get()
	p.lastWM[i] = p.streamWM
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
	for i := range p.bufs {
		if len(p.bufs[i].entries) > 0 || (p.hasWM && p.streamWM.After(p.lastWM[i])) {
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
		if alerts := s.sched.Apply(b.layout, e.ev, time.Unix(0, e.wm), e.hasWM, b.ops[e.first:e.first+e.n]); len(alerts) > 0 {
			r.cfg.Fan.Publish(alerts)
		}
	}
	if b.hasWM {
		if alerts := s.sched.AdvanceAll(b.wm); len(alerts) > 0 {
			r.cfg.Fan.Publish(alerts)
		}
	}
	r.part.put(b)
}
