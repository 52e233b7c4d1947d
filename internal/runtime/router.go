package runtime

// Partitioned envelope routing: the one delivery path between the router's
// shared evaluation and the shards' state folding, at every shard count.
// Each evaluated event is delivered only to the shards that own state for it,
// derived from the same 32-bit FNV ownership hashing that checkpoint re-split
// and the distributed cluster's Config.Owns already define —
//
//   - pinned queries: the home shard holding the query;
//   - by-event queries: hash of the event's subject entity — the entry for
//     that shard is marked as the event's owner, and only there do by-event
//     replicas fold it;
//   - by-group queries: hash of each hit pattern's group-by key, evaluated by
//     the query's compiled key programs (a key that fails to evaluate routes
//     as the empty key, so one replica reports the failure, once);
//
// and instead of a channel send per event, entries accumulate into per-shard
// ring buffers (reusable slabs recycled through a sync.Pool) flushed on a
// size threshold, when the ingest queue goes idle, and always before a
// control envelope, so control operations — including checkpoint barriers —
// cut the stream at one consistent point even though shards see disjoint
// event subsets.
//
// Two lightweight mechanisms give every shard what seeing every event would:
//
//   - Touch entries: a stateful by-group query's replicas live on every
//     shard, and window existence/close cadence must stay identical on all
//     of them (alert history backfill and checkpoint re-split depend on it).
//     Shards holding replicas of a hit query but not owning the event's
//     group receive a touch-only entry — time plus shared hit set, no fold.
//
//   - Watermark stamps: every entry carries the stream watermark the router
//     observed before its event, applied to the target query before folding;
//     every flushed batch carries the router's running watermark, applied to
//     all active queries at the batch boundary (AdvanceAll). Together these
//     reproduce the serial engine's per-query watermark at every fold point
//     and close windows promptly on shards that received no events.
//
// docs/architecture.md records the one deliberate divergence from the serial
// reference (a query resumed from pause on an out-of-order stream).

import (
	"math/bits"
	"sync"
	"time"

	"saql/internal/engine"
	"saql/internal/event"
	"saql/internal/scheduler"
)

// flushThreshold caps how many entries a per-shard buffer accumulates before
// it is flushed regardless of queue pressure, bounding both batch latency
// and buffer memory under sustained load.
const flushThreshold = 256

// routedEntry is one buffered delivery for one shard: a full (event,
// hit-set) delivery when ev is non-nil, a touch-only entry otherwise. wm is
// the stream watermark the router had observed before this event; owner
// marks the one shard whose by-event replicas fold the event.
type routedEntry struct {
	ev    *event.Event
	at    time.Time // event time (touch-only entries)
	hits  *scheduler.HitSet
	wm    time.Time
	hasWM bool
	owner bool
}

// shardSet is a bitset over shard ids, one word per 64 shards.
type shardSet []uint64

//saql:hotpath
func (s shardSet) add(i int) { s[i>>6] |= 1 << (i & 63) }

// shardBatch is one flushed slab of routed entries. wm is the router's
// running stream watermark at flush time; the receiving shard applies it to
// every active query after the entries (scheduler.AdvanceAll), which is the
// partitioned replacement for "every shard sees every event's time".
type shardBatch struct {
	entries []routedEntry
	wm      time.Time
	hasWM   bool
}

// routeInfo is the router's per-query placement record, maintained by the
// routing goroutine as control envelopes pass through it — the same stream
// point at which the evaluation scheduler's layout changes, so the slot
// cache below can never pair a stale placement with a fresh hit set.
type routeInfo struct {
	placement engine.Placement
	home      int // pinned home shard; -1 when no local replica exists
	evalQ     *engine.Query
}

// partitioner holds the routing goroutine's confined state. Only the router
// (and Close's final drain, which runs after the router exits) touches it.
type partitioner struct {
	r    *Runtime
	n    int
	owns func(uint32) bool

	routes   map[string]*routeInfo
	slots    []*routeInfo // slot index -> routeInfo, cached per layout
	slotsFor *scheduler.Layout

	bufs   []*shardBatch
	lastWM []time.Time // watermark last flushed to each shard

	streamWM time.Time
	hasWM    bool

	keys    []string // HitGroupKeys scratch
	deliver shardSet // routeEvent scratch: shards the current event folds on
	all     shardSet // every shard: who gets a touch when a by-group query is hit
	pool    sync.Pool
}

func newPartitioner(r *Runtime) *partitioner {
	p := &partitioner{
		r:      r,
		n:      len(r.shards),
		owns:   r.cfg.Owns,
		routes: map[string]*routeInfo{},
		bufs:   make([]*shardBatch, len(r.shards)),
		lastWM: make([]time.Time, len(r.shards)),
	}
	words := (p.n + 63) / 64
	p.deliver, p.all = make(shardSet, words), make(shardSet, words)
	for i := 0; i < p.n; i++ {
		p.all.add(i)
	}
	p.pool.New = func() any {
		return &shardBatch{entries: make([]routedEntry, 0, flushThreshold)}
	}
	for i := range p.bufs {
		p.bufs[i] = p.get()
	}
	return p
}

//saql:hotpath
func (p *partitioner) get() *shardBatch { return p.pool.Get().(*shardBatch) }

// put recycles a processed batch. Called by shard workers, hence the pool:
// entries are cleared so the slab retains no event or hit-set references.
//
//saql:hotpath
func (p *partitioner) put(b *shardBatch) {
	clear(b.entries)
	b.entries = b.entries[:0]
	b.wm, b.hasWM = time.Time{}, false
	p.pool.Put(b)
}

// applyCtl keeps the routing table in lockstep with the evaluation
// scheduler: both mutate at the moment the control envelope passes through
// the routing goroutine, before any later event.
func (p *partitioner) applyCtl(c *control) {
	switch c.kind {
	case ctlAdd, ctlSwap:
		ri := &routeInfo{placement: c.eval.Placement(), home: -1, evalQ: c.eval}
		if ri.placement == engine.PlacePinned {
			for i, q := range c.replicas {
				if q != nil {
					ri.home = i
				}
			}
		}
		p.routes[c.name] = ri
	case ctlRemove:
		delete(p.routes, c.name)
	}
	p.slotsFor = nil // registry changed: re-resolve against the next layout
}

// resolveSlots refreshes the slot -> routeInfo cache for a hit-set layout.
// Layouts change only on registry mutations, so this is never per-event work.
func (p *partitioner) resolveSlots(layout *scheduler.Layout) {
	if p.slotsFor == layout {
		return
	}
	p.slots = make([]*routeInfo, len(layout.Slots))
	for name, slot := range layout.Slots {
		p.slots[slot] = p.routes[name]
	}
	p.slotsFor = layout
}

// routeEvent buffers one evaluated event into the per-shard slabs it needs
// to reach. Events that matched nothing buffer nowhere: the next flush's
// batch watermark is all any shard needs from them.
//
//saql:hotpath
func (p *partitioner) routeEvent(ev *event.Event, hs *scheduler.HitSet) {
	wm, hasWM := p.streamWM, p.hasWM
	if !p.hasWM || ev.Time.After(p.streamWM) {
		p.streamWM = ev.Time
		p.hasWM = true
	}
	if hs == nil {
		return
	}
	p.resolveSlots(hs.Layout)
	deliver := p.deliver
	clear(deliver)
	eventOwner := -1 // shard owning the event for by-event queries
	groupTouch := false
	for slot, h := range hs.Hits {
		if len(h) == 0 {
			continue
		}
		ri := p.slots[slot]
		if ri == nil {
			continue
		}
		switch ri.placement {
		case engine.PlacePinned:
			if ri.home >= 0 {
				deliver.add(ri.home)
			}
		case engine.PlaceByEvent:
			h32 := hashSubject(ev)
			if p.owns == nil || p.owns(h32) {
				eventOwner = int(h32 % uint32(p.n))
				deliver.add(eventOwner)
			}
		case engine.PlaceByGroup:
			// Replicas live on every shard: non-owners still need a touch so
			// their window cadence matches, even when the cluster-level Owns
			// filter keeps every local shard from folding the group.
			groupTouch = true
			keys := ri.evalQ.HitGroupKeys(p.keys[:0], ev, h)
			for _, k := range keys {
				h32 := hashString(k)
				if p.owns == nil || p.owns(h32) {
					deliver.add(int(h32 % uint32(p.n)))
				}
			}
			p.keys = keys[:0]
		}
	}
	for w, owners := range deliver {
		rem := owners
		if groupTouch {
			rem = p.all[w] // non-owners get a touch-only entry
		}
		for rem != 0 {
			bit := rem & -rem
			rem &^= bit
			i := w<<6 | bits.TrailingZeros64(bit)
			e := routedEntry{hits: hs, wm: wm, hasWM: hasWM}
			if owners&bit != 0 {
				e.ev, e.owner = ev, i == eventOwner
			} else {
				e.at = ev.Time
			}
			b := p.bufs[i]
			b.entries = append(b.entries, e)
			if len(b.entries) >= flushThreshold {
				p.flushShard(i)
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

// processBatch applies one routed batch to a shard: deliveries fold, touch
// entries open windows, and the batch watermark advances every active query.
// Runs on the shard's worker goroutine.
//
//saql:hotpath
func (r *Runtime) processBatch(s *shard, b *shardBatch) {
	for i := range b.entries {
		e := &b.entries[i]
		if r.testObserve != nil {
			r.testObserve(s.id, e)
		}
		var alerts []*engine.Alert
		if e.ev != nil {
			alerts = s.sched.IngestRouted(e.ev, e.hits, e.wm, e.hasWM, e.owner)
		} else {
			alerts = s.sched.TouchRouted(e.at, e.hits, e.wm, e.hasWM)
		}
		if len(alerts) > 0 {
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
