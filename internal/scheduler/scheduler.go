// Package scheduler implements SAQL's concurrent query scheduler with the
// master–dependent-query scheme. Concurrent queries are divided into groups
// by semantic compatibility; each group has one master query and any number
// of dependent queries. Only the master has direct access to the stream: it
// evaluates the (expensive) event-pattern predicates once per event, and the
// dependents reuse its intermediate results — they re-examine only the
// events the master already matched, applying their residual (stricter)
// constraints. The scheme means one logical copy of the stream per group
// rather than per query, which is the data-copy reduction the paper claims
// over generic stream engines.
package scheduler

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"saql/internal/ast"
	"saql/internal/engine"
	"saql/internal/event"
)

// Stats aggregates scheduler-level accounting across all events processed.
// All sharing counters (copies and pattern evaluations, actual and naive)
// count only active — non-paused — queries, so SharingRatio stays honest
// while parts of a group are paused.
type Stats struct {
	Events int64
	// StreamCopies counts per-event data copies under the scheme: one per
	// group in which any active query examined the event.
	StreamCopies int64
	// NaiveCopies counts what a per-query engine would have used: one copy
	// per active query per event.
	NaiveCopies int64
	// PatternEvals counts pattern-predicate evaluations actually performed
	// (masters on all events; dependents only on master-matched events).
	PatternEvals int64
	// NaivePatternEvals counts what per-query execution would have
	// performed (every active query evaluates every pattern on every
	// event).
	NaivePatternEvals int64
	// KeyEvals counts group-by key evaluations performed: once per event per
	// hit pattern per key class, however many of the class's queries the hit
	// reaches. The serial path (Process, ProcessWithHits) evaluates them in
	// the fold, through the class's memo; a started engine in the router,
	// while its shards evaluate only the error of a key the router found to
	// fail (the runtime adds the router's count, see Runtime.SchedStats).
	KeyEvals int64
	// GroupProbes counts key class directory probes: the one lookup per
	// event per hit pattern per key class — per shard that folds it, on a
	// started engine — that turns a key into the group id every member folds
	// by. On the serial path it equals the successful KeyEvals.
	GroupProbes int64
	Alerts      int64
}

// SharingRatio reports NaiveCopies / StreamCopies (≥ 1; higher is better).
func (s Stats) SharingRatio() float64 {
	if s.StreamCopies == 0 {
		return 0
	}
	return float64(s.NaiveCopies) / float64(s.StreamCopies)
}

// Layout is the immutable slot assignment of a HitSet: every registered
// query name maps to one index of HitSet.Hits, and every slot to one variant
// set. A scheduler builds (and versions) a new layout after every
// Add/Remove/Swap, so a HitSet produced before a registry change can never be
// misread against the registry that follows it — consumers re-resolve their
// slot caches whenever the layout pointer changes.
type Layout struct {
	Version int64
	Slots   map[string]int
	// Sets partitions the slots into variant sets, in order of their first
	// slot: the unit the router routes and a shard applies (Op.Set).
	Sets []VariantSet
}

// VariantSet is a scheduler group's master and its equal dependents — the
// queries whose hit sets are the master's by construction — that also share
// their key class and placement: the window-length variants an analyst keeps
// of one detection. Every other query is a set of its own. The router
// resolves a hit once per set, not once per member.
type VariantSet struct {
	Slots []int // the members' slots, ascending
	// Class is the members' key class: an id the scheduler assigned at Add,
	// never reused, shared with every consumer of the layout; -1 for rule
	// queries.
	Class int32
}

// slot reports name's index in l, or -1 when absent.
func (l *Layout) slot(name string) int {
	if l == nil {
		return -1
	}
	if i, ok := l.Slots[name]; ok {
		return i
	}
	return -1
}

// HitSet carries one event's pattern-hit sets, computed by an evaluating
// scheduler (EvaluateBatch). Hits is indexed by Layout slot; an empty entry
// means the query matched nothing. It lives in scratch the evaluating
// scheduler owns and is valid only until that scheduler's next EvaluateBatch:
// whoever resolves it — the runtime's router into ops, the benchmark's staged
// fold through ProcessWithHits — does so before evaluating the next batch, on
// the evaluating goroutine. Each HitSet is stamped with its batch's
// generation, and consuming one that outlived its batch panics (AssertLive)
// rather than folding whatever the scratch holds by then.
type HitSet struct {
	Layout *Layout
	Hits   [][]int

	gen uint64
	cur *atomic.Uint64 // the evaluating scheduler's current generation
}

// AssertLive panics if the evaluating scheduler has started another batch
// since h was computed: h's tables have been reused and name other events'
// hits. Only a bug in the caller — holding a HitSet across EvaluateBatch calls
// — gets here.
//
//saql:hotpath
func (h *HitSet) AssertLive() {
	if h.cur != nil && h.cur.Load() != h.gen {
		panic(fmt.Sprintf("scheduler: stale HitSet: computed by batch %d, consumed during batch %d (a HitSet is valid only until the next EvaluateBatch)", h.gen, h.cur.Load()))
	}
}

// OpKind says what one routed Op asks of the local members of a variant set.
type OpKind uint8

const (
	// OpFold folds the entry's event, a hit of pattern Op.Pat, into the group
	// Op.Key of every member: state this replica owns. The set's slice log
	// records it, and every member folds it when the log seals.
	OpFold OpKind = iota
	// OpKeyErr: pattern Op.Pat's group key does not evaluate on the entry's
	// event and this replica, the owner of the empty key, is the one to
	// report it. Nothing folds; the windows open.
	OpKeyErr
	// OpTouch: the set was hit but this replica owns none of the hit's
	// groups. Nothing folds; the windows open, so that window cadence is the
	// same on every replica. A touch inside the set's slice is a flag on the
	// slice: every instant of it opens the same windows.
	OpTouch
	// OpHits feeds the hit patterns in Op.Arg (bit p = pattern p) to the
	// members' matchers: the pinned replicas, or the by-event replicas on the
	// shard owning the event.
	OpHits
)

// Op is one instruction of a routed entry: what the local members of variant
// set Set (Layout.Sets) do with the entry's event. The router resolves every
// hit into ops — whose state, which key, which shard — once per set, and a
// shard only executes them (Scheduler.Apply): a stateful set's into its slice
// log, a rule set's on each local member. An entry's ops are grouped by set.
// 32 bytes.
type Op struct {
	Key string // OpFold: the group key
	// Arg is OpHits' hit patterns as a bitset (bit p = pattern p), and
	// OpFold's key hash (window.HashKey(Key)): the router hashed the key to
	// find its owner, and the owner's directory probes with the same hash.
	Arg  uint64
	Set  int32
	Pat  uint8 // OpFold, OpKeyErr: the hit pattern (sema.MaxPatterns bounds it)
	Kind OpKind
}

// dependent is a query executing against its master's intermediate results.
type dependent struct {
	q *engine.Query
	// equal marks dependents whose constraint sets equal the master's:
	// their hits are exactly the master's, so the residual re-examination
	// is skipped entirely (the concurrent-analyst case of same patterns
	// with different alert thresholds).
	equal bool
	// slot is the query's index in the layout the scheduler last resolved
	// against (see resolveSlotsLocked); -1 when absent from that layout.
	slot int
}

// group is one master–dependent group.
type group struct {
	sig        string
	master     *engine.Query
	dependents []*dependent
	// slot is the master's index in the last-resolved layout.
	slot int
}

// class is one key class as its scheduler assigns it: a representative
// member to compare newcomers with (engine.SameKeyPrograms) and how many
// registered queries it holds.
type class struct {
	id  int32
	rep *engine.Query
	n   int
}

// localSet is one variant set of the resolved layout as this scheduler holds
// it: its members placed here with their slots, the state of their key class,
// and the slice log they fold through.
type localSet struct {
	members []*engine.Query
	slots   []int            // each member's slot; -1 for one the layout does not name
	kc      *engine.KeyClass // nil for rule queries
	log     *engine.SliceLog // nil for rule queries
}

// Scheduler routes events to query groups.
type Scheduler struct {
	mu       sync.Mutex
	groups   []*group
	queries  map[string]*engine.Query
	reporter *engine.ErrorReporter
	stats    Stats

	// classes are the live key classes, in creation order; classOf names each
	// stateful query's. Both change only at Add, Remove and Swap.
	classes   []*class
	classOf   map[string]int32
	nextClass int32
	// Sharing can be disabled to obtain the per-query-copy baseline
	// behaviour for experiments (every query becomes its own master).
	sharing bool

	// layout is this scheduler's own slot assignment (what EvaluateBatch
	// stamps onto HitSets), nil from a registry change until layoutLocked
	// builds the next one, under version layoutVersion; resolvedFor is the
	// layout the group/dependent slot caches and the sets currently reflect —
	// own layout when evaluating, the producer's layout when consuming foreign
	// HitSets or ops — and resolved says they reflect the registry at all
	// (false from a registry change until the next resolveSlotsLocked).
	layout        *Layout
	layoutVersion int64
	resolvedFor   *Layout
	resolved      bool
	// bySlot inverts the resolved layout: slot index -> locally registered
	// query (nil where the slot's query is not placed on this scheduler).
	bySlot []*engine.Query
	// sets are the resolved layout's variant sets as placed here (Apply
	// indexes them by op), followed by a set of its own for every local query
	// the layout does not name: together they hold every registered query
	// once. keyed holds the key class state by class id for the classes the
	// resolved layout names; retired accumulates the counters of the classes
	// it dropped.
	sets    []localSet
	keyed   map[int32]*engine.KeyClass
	retired Stats
	// seq numbers the events this scheduler folds: a key class memo is
	// current for the event whose number it holds.
	seq uint64
	// procScratch is Process's reusable slot table: the serial path
	// consumes the hits under the same lock hold, so the table never
	// escapes and one zeroed buffer serves every event.
	procScratch [][]int
	// hitScratch backs the hit sets procScratch points at, likewise reused;
	// Apply expands an OpHits pattern set into it.
	hitScratch []int
	// batch is EvaluateBatch's scratch: what it returns lives here until the
	// next call.
	batch batchScratch
	// report adapts the error reporter once at construction so the per-event
	// paths don't allocate a closure per call.
	report func(error)
}

// New creates a scheduler. reporter may be nil. sharing enables the
// master–dependent-query scheme; with sharing=false every query is executed
// independently (the configuration E3 uses as the SAQL-side ablation).
func New(reporter *engine.ErrorReporter, sharing bool) *Scheduler {
	s := &Scheduler{
		queries:  map[string]*engine.Query{},
		classOf:  map[string]int32{},
		keyed:    map[int32]*engine.KeyClass{},
		reporter: reporter,
		sharing:  sharing,
	}
	s.report = s.reportFn()
	return s
}

// Add registers a compiled query, assigning it to a compatible group or
// creating a new one.
func (s *Scheduler) Add(q *engine.Query) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.queries[q.Name]; dup {
		return fmt.Errorf("scheduler: duplicate query name %q", q.Name)
	}
	s.queries[q.Name] = q
	s.classifyLocked(q)
	s.addLocked(q)
	s.invalidateLayoutLocked()
	return nil
}

// classifyLocked assigns a stateful query its key class: the first live class
// whose representative compiles the same key programs, or a new one. One
// comparison per class, at registration only; without sharing every query is
// a class of its own.
func (s *Scheduler) classifyLocked(q *engine.Query) {
	if !q.Stateful() {
		return
	}
	for _, c := range s.classes {
		if s.sharing && c.rep.SameKeyPrograms(q) {
			c.n++
			s.classOf[q.Name] = c.id
			return
		}
	}
	c := &class{id: s.nextClass, rep: q, n: 1}
	s.nextClass++
	s.classes = append(s.classes, c)
	s.classOf[q.Name] = c.id
}

// declassifyLocked releases name's key class membership, dropping a class
// left empty (its id is never reused).
func (s *Scheduler) declassifyLocked(name string) {
	id, ok := s.classOf[name]
	if !ok {
		return
	}
	delete(s.classOf, name)
	for i, c := range s.classes {
		if c.id == id {
			if c.n--; c.n == 0 {
				s.classes = append(s.classes[:i], s.classes[i+1:]...)
			} else if c.rep.Name == name {
				c.rep = s.memberOfLocked(id, name)
			}
			return
		}
	}
}

// memberOfLocked returns a registered member of class id other than name:
// the first in group order.
func (s *Scheduler) memberOfLocked(id int32, name string) *engine.Query {
	for _, g := range s.groups {
		if cid, ok := s.classOf[g.master.Name]; ok && cid == id && g.master.Name != name {
			return g.master
		}
		for _, d := range g.dependents {
			if cid, ok := s.classOf[d.q.Name]; ok && cid == id && d.q.Name != name {
				return d.q
			}
		}
	}
	return nil // unreachable: the class has members left
}

// Remove unregisters a query by name. Removing a master promotes its first
// dependent; removing the last query of a group drops the group.
func (s *Scheduler) Remove(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ok := s.removeLocked(name)
	if ok {
		s.invalidateLayoutLocked()
	}
	return ok
}

func (s *Scheduler) removeLocked(name string) bool {
	if _, ok := s.queries[name]; !ok {
		return false
	}
	delete(s.queries, name)
	s.declassifyLocked(name)
	for gi, g := range s.groups {
		if g.master.Name == name {
			if len(g.dependents) == 0 {
				s.groups = append(s.groups[:gi], s.groups[gi+1:]...)
			} else {
				// Promote the weakest dependent that subsumes the rest;
				// fall back to re-adding all dependents.
				deps := g.dependents
				s.groups = append(s.groups[:gi], s.groups[gi+1:]...)
				for _, d := range deps {
					delete(s.queries, d.q.Name)
				}
				for _, d := range deps {
					// Re-add through the normal path (lock is held;
					// inline the body).
					s.queries[d.q.Name] = d.q
					s.addLocked(d.q)
				}
			}
			return true
		}
		for di, d := range g.dependents {
			if d.q.Name == name {
				g.dependents = append(g.dependents[:di], g.dependents[di+1:]...)
				return true
			}
		}
	}
	return false
}

// addLocked assigns q to a group; the caller holds s.mu and has already
// registered q in s.queries.
func (s *Scheduler) addLocked(q *engine.Query) {
	if !s.sharing {
		s.groups = append(s.groups, &group{sig: q.Name, master: q})
		return
	}
	sig := signature(q.AST)
	for _, g := range s.groups {
		if g.sig != sig {
			continue
		}
		if subsumes(g.master.AST, q.AST) {
			// The master's matches cover q's: q joins as a dependent.
			g.dependents = append(g.dependents, &dependent{
				q: q, equal: subsumes(q.AST, g.master.AST),
			})
			return
		}
		if subsumes(q.AST, g.master.AST) {
			// q is weaker than the current master: q becomes the new
			// master and the old master a dependent. All existing
			// dependents remain covered (old master ⊆ new master), but
			// their equality is relative to the new, weaker master.
			g.dependents = append(g.dependents, &dependent{q: g.master})
			g.master = q
			for _, d := range g.dependents {
				d.equal = subsumes(d.q.AST, q.AST)
			}
			return
		}
	}
	s.groups = append(s.groups, &group{sig: sig, master: q})
}

// Swap atomically replaces the query registered under name with q (which
// must carry the same name): alert-for-alert it is Remove(name) followed by
// Add(q), executed under one lock hold so no event can be processed between
// the two halves. When carry is set and the old query exists, q adopts the
// old query's sliding-window state first (the caller has verified
// CanCarryStateFrom). Group membership is recomputed: the new query joins
// whichever master–dependent group its constraints now place it in.
func (s *Scheduler) Swap(name string, q *engine.Query, carry bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.queries[name]
	if old != nil {
		s.removeLocked(name)
	}
	if _, dup := s.queries[q.Name]; dup {
		// Unreachable when q.Name == name; guards misuse.
		return fmt.Errorf("scheduler: duplicate query name %q", q.Name)
	}
	if carry && old != nil {
		q.CarryStateFrom(old)
	}
	s.queries[q.Name] = q
	s.classifyLocked(q)
	s.addLocked(q)
	s.invalidateLayoutLocked()
	return nil
}

// invalidateLayoutLocked retires the layout after a registry change: the next
// evaluation builds a new one (layoutLocked), under a higher version, so
// in-flight HitSets stamped with the old layout are never resolved against
// the new registry — and a burst of registrations builds it once, not once
// per query. The caller holds s.mu. The slice logs keep their members until
// resolveSlotsLocked settles them and builds the next ones.
func (s *Scheduler) invalidateLayoutLocked() {
	s.layout = nil
	s.resolvedFor, s.resolved = nil, false
}

// settleLocked seals every slice log (engine.SliceLog.Settle): the registered
// queries' state is then what folding hit by hit would have left, and every
// fold error of the events seen so far is reported. It raises no alert. A
// reader of one query's state needs none of this — the query settles its own
// log — so only a change of the sets themselves calls it. The caller holds
// s.mu.
func (s *Scheduler) settleLocked() {
	for i := range s.sets {
		if l := s.sets[i].log; l != nil {
			l.Settle()
		}
	}
}

// Settle seals every slice log, so that the error reporter holds the fold
// errors of every event processed so far: a fold error is reported when its
// slice seals.
func (s *Scheduler) Settle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settleLocked()
}

// layoutLocked returns the layout of the current registry, deriving the slot
// assignment and the variant sets at the first call after a change. Sets come
// from what Add already decided — group membership, the equal flags, the key
// classes — so this is a pass over the slots, with no program compared. The
// caller holds s.mu.
func (s *Scheduler) layoutLocked() *Layout {
	if s.layout != nil {
		return s.layout
	}
	s.layoutVersion++
	slots := make(map[string]int, len(s.queries))
	var sets []VariantSet
	n := 0
	for _, g := range s.groups {
		// The master and its equal dependents share one hit set; among them,
		// the members of one key class and placement are one variant set.
		// shared lists those sets of this group, founders their first members.
		var shared []int
		var founders []*engine.Query
		place := func(q *engine.Query, equal bool) {
			slot := n
			n++
			slots[q.Name] = slot
			class, ok := s.classOf[q.Name]
			if !ok {
				class = -1
			}
			if equal {
				for k, i := range shared {
					if sets[i].Class == class && founders[k].Placement() == q.Placement() {
						sets[i].Slots = append(sets[i].Slots, slot)
						return
					}
				}
				shared, founders = append(shared, len(sets)), append(founders, q)
			}
			sets = append(sets, VariantSet{Slots: []int{slot}, Class: class})
		}
		place(g.master, true)
		for _, d := range g.dependents {
			place(d.q, d.equal)
		}
	}
	s.layout = &Layout{Version: s.layoutVersion, Slots: slots, Sets: sets}
	return s.layout
}

// resolveSlotsLocked refreshes the per-group slot caches, the local variant
// sets with their slice logs and the key class states against target (nil:
// no layout, every local query a set of its own). It is a no-op when the
// caches already reflect target, so this happens once per layout change,
// never per event. The old sets' logs are settled first: their hits are
// folded and their members' watermarks brought up to what they observed. A
// class the new layout still names keeps its state — its directory, and with
// it every member's id index — across the change.
func (s *Scheduler) resolveSlotsLocked(target *Layout) {
	if s.resolved && s.resolvedFor == target {
		return
	}
	s.settleLocked()
	var n int
	var sets []VariantSet
	if target != nil {
		n, sets = len(target.Slots), target.Sets
	}
	s.bySlot = make([]*engine.Query, n)
	var unnamed []*engine.Query // local queries target does not name
	place := func(q *engine.Query, slot int) {
		if slot < 0 {
			unnamed = append(unnamed, q)
			return
		}
		s.bySlot[slot] = q
	}
	for _, g := range s.groups {
		g.slot = target.slot(g.master.Name)
		place(g.master, g.slot)
		for _, d := range g.dependents {
			d.slot = target.slot(d.q.Name)
			place(d.q, d.slot)
		}
	}
	s.sets = make([]localSet, len(sets), len(sets)+len(unnamed))
	keyed := map[int32]*engine.KeyClass{}
	var order []int32 // classes in first-set order
	logs := map[int32][]*engine.SliceLog{}
	for i, vs := range sets {
		ls := &s.sets[i]
		for _, slot := range vs.Slots {
			if q := s.bySlot[slot]; q != nil {
				ls.members = append(ls.members, q)
				ls.slots = append(ls.slots, slot)
			}
		}
		if vs.Class < 0 || len(ls.members) == 0 {
			continue
		}
		kc := keyed[vs.Class]
		if kc == nil {
			if kc = s.keyed[vs.Class]; kc == nil {
				kc = engine.NewKeyClass()
			}
			keyed[vs.Class] = kc
			order = append(order, vs.Class)
		}
		ls.kc, ls.log = kc, engine.NewSliceLog(ls.members, kc, s.report)
		logs[vs.Class] = append(logs[vs.Class], ls.log)
	}
	for _, id := range order {
		keyed[id].SetLogs(logs[id])
	}
	// An unnamed query is handed no hits (its slot is -1), only time: a key
	// class of its own never sees a key.
	for _, q := range unnamed {
		ls := localSet{members: []*engine.Query{q}, slots: []int{-1}}
		if q.Stateful() {
			ls.kc = engine.NewKeyClass()
			ls.log = engine.NewSliceLog(ls.members, ls.kc, s.report)
			ls.kc.SetLogs([]*engine.SliceLog{ls.log})
		}
		s.sets = append(s.sets, ls)
	}
	for id, kc := range s.keyed {
		if keyed[id] == nil { // counters are sums: the order does not matter
			s.retired.KeyEvals += kc.KeyEvals
			s.retired.GroupProbes += kc.Probes
		}
	}
	s.keyed = keyed
	s.resolvedFor, s.resolved = target, true
}

// SetPaused marks a registered query paused or active, reporting whether the
// name was found. The flag flips under the scheduler lock, so it takes
// effect between events — never mid-ingest — and between two seals of the
// query's slice log (engine.Query.SetPaused).
func (s *Scheduler) SetPaused(name string, paused bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queries[name]
	if !ok {
		return false
	}
	q.SetPaused(paused)
	return true
}

// Groups reports the current grouping as master name -> dependent names.
func (s *Scheduler) Groups() map[string][]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string][]string{}
	for _, g := range s.groups {
		deps := make([]string, 0, len(g.dependents))
		for _, d := range g.dependents {
			deps = append(deps, d.q.Name)
		}
		sort.Strings(deps)
		out[g.master.Name] = deps
	}
	return out
}

// Query returns the registered query by name. Read its state where it is not
// ingesting — on the goroutine that drives this scheduler, or through
// QueryStats.
func (s *Scheduler) Query(name string) (*engine.Query, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queries[name]
	return q, ok
}

// QueryStats returns the registered query's counters, with its live state's
// size (StateBytes), under the scheduler lock: reading them folds what the
// query's slice log holds, which must not interleave with Process.
func (s *Scheduler) QueryStats(name string) (engine.QueryStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queries[name]
	if !ok {
		return engine.QueryStats{}, false
	}
	st := q.Stats()
	st.StateBytes = q.StateBytes()
	return st, true
}

// QueryCount reports the number of registered queries.
func (s *Scheduler) QueryCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queries)
}

// GroupCount reports the number of master–dependent groups.
func (s *Scheduler) GroupCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.groups)
}

// Process feeds one event through every group and returns all alerts
// raised: the serial reference path — evaluate, then fold into every active
// query, under one lock hold — that the routed pipeline is tested against.
// It evaluates with the per-event evaluateLocked, not the router's columnar
// evaluateBatchLocked; evaluateLocked says why.
func (s *Scheduler) Process(ev *event.Event) []*engine.Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Events++
	arena := s.procScratch
	h := s.evaluateLocked(ev, &arena, 1)
	alerts := s.ingestLocked(ev, s.layout, h) // evaluateLocked built it
	if h != nil {
		// The carved table was consumed above; zero it and keep it as the
		// scratch for the next event (it grows with the layout on demand).
		for i := range h {
			h[i] = nil
		}
		s.procScratch = h
	}
	return alerts
}

// batchScratch is the memory one EvaluateBatch result lives in, reused by the
// next: a steady stream evaluates without allocating.
type batchScratch struct {
	gen atomic.Uint64 // generation of the batch the scratch currently holds
	// The result slice and the HitSet headers alternate between two buffers,
	// so what the previous batch handed out is not overwritten by this one and
	// still carries the old generation: a HitSet (or result slice) consumed one
	// batch late is always caught. Older ones alias live headers eventually.
	res [2]struct {
		out  []*HitSet // per event; nil where nothing matched
		sets []HitSet  // headers of the events with hits
	}
	tbl  [][]int // the slot tables, carved len(layout.Slots) at a time
	hits []int   // every hit set of the batch, back to back

	master   [][]int  // the current group's master hits per event
	masks    []uint64 // its per-event pattern bitmasks
	globalOK []bool
}

// EvaluateBatch computes the shard-agnostic half of Process for a whole
// submission batch under one lock hold: every group's master pattern hits
// (once), refined into per-dependent residual hit sets. It mutates no query
// state — only the sharing counters. It returns one HitSet per event, nil
// where nothing matched (consumers treat a nil HitSet as all-empty).
//
// Lifetime: the returned slice, the HitSets and every hit slice in them live
// in scratch this scheduler owns and are valid until its next EvaluateBatch —
// the contract Process already has with itself for one event. The caller
// resolves them (into routed ops, or through ProcessWithHits) before
// evaluating again and keeps no reference; a HitSet consumed late panics
// (HitSet.AssertLive). In return the stage allocates nothing in steady state:
// it sits on the router's hot path in front of every shard.
//
// Evaluation runs in pattern-major (columnar) order: each group's master
// sweeps its compiled patterns across the whole batch before the next group
// runs (see evaluateBatchLocked), rather than re-touching every group's
// programs once per event.
func (s *Scheduler) EvaluateBatch(evs []*event.Event) []*HitSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Events += int64(len(evs))
	return s.evaluateBatchLocked(evs)
}

// hitTableChunk is how many events' slot tables the first allocation of
// batchScratch.tbl holds; it doubles from there to the stream's high-water
// mark of events with hits per batch.
const hitTableChunk = 32

// grown returns buf with length n, reallocated only when its capacity is
// short; the contents are unspecified.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// evaluateBatchLocked is the columnar core of EvaluateBatch. For each group,
// the master's patterns sweep the entire batch first (engine.MatchBatch
// writes per-event hit bitmasks, materialised into index slices in the
// batch's hit buffer), then each dependent refines the master's hits across
// the batch. Headers and slot tables exist only for events with hits — most
// events of a fleet-wide stream match no host-pinned query — and all of it is
// carved from s.batch. Counters are maintained exactly as the event-major
// loop did — per-group constants multiplied by the batch length, residual
// evaluations counted as they happen — so stats are bit-identical to
// processing the batch event by event. The caller holds s.mu and has already
// counted Events.
//
// It serves EvaluateBatch: the router, once per submission batch, and the
// repository benchmark's staged replica. The serial Process path keeps the
// per-event evaluateLocked, which is faster on a batch of one (measured
// there).
//
//saql:hotpath
func (s *Scheduler) evaluateBatchLocked(evs []*event.Event) []*HitSet {
	n := len(evs)
	if n == 0 {
		return nil
	}
	s.resolveSlotsLocked(s.layoutLocked())
	nSlots := len(s.layout.Slots)
	b := &s.batch
	gen := b.gen.Add(1) // whatever the previous batch handed out is stale from here
	res := &b.res[gen&1]
	res.out = grown(res.out, n)
	clear(res.out)
	res.sets = grown(res.sets, n)[:0]
	b.master = grown(b.master, n)
	b.masks = grown(b.masks, n)
	b.globalOK = grown(b.globalOK, n)
	out, tbl, buf := res.out, b.tbl, b.hits[:0]
	put := func(i, slot int, h []int) {
		if len(h) == 0 || slot < 0 {
			return
		}
		if out[i] == nil {
			if len(tbl) < nSlots {
				// Tables already carved keep the old array alive for this
				// batch; the next batch carves from the larger one.
				tbl = make([][]int, max(2*len(b.tbl), hitTableChunk*nSlots))
				b.tbl = tbl
			}
			t := tbl[:nSlots:nSlots]
			tbl = tbl[nSlots:]
			clear(t) // the previous batch's hits
			res.sets = append(res.sets, HitSet{Layout: s.layout, Hits: t, gen: gen, cur: &b.gen})
			out[i] = &res.sets[len(res.sets)-1]
		}
		out[i].Hits[slot] = h
	}

	for _, g := range s.groups {
		masterActive := !g.master.Paused()
		active := 0
		if masterActive {
			active++
		}
		for _, d := range g.dependents {
			if !d.q.Paused() {
				active++
			}
		}
		if active == 0 {
			continue
		}
		// Per-event counter bumps fold into one multiplication: the flags
		// they depend on cannot change while the lock is held.
		s.stats.StreamCopies += int64(n)
		s.stats.NaiveCopies += int64(active) * int64(n)
		nPat := len(g.master.Patterns())
		s.stats.PatternEvals += int64(nPat) * int64(n)
		if masterActive {
			s.stats.NaivePatternEvals += int64(nPat) * int64(n)
		}

		// Columnar sweep: one pattern across all events before the next. A
		// query has at most sema.MaxPatterns (63) of them, one mask bit each.
		clear(b.masks)
		g.master.MatchBatch(evs, b.masks, b.globalOK)
		for i, m := range b.masks {
			start := len(buf)
			for ; m != 0; m &= m - 1 {
				buf = append(buf, bits.TrailingZeros64(m))
			}
			mh := buf[start:len(buf):len(buf)]
			b.master[i] = mh
			put(i, g.slot, mh)
		}

		for _, d := range g.dependents {
			if d.q.Paused() {
				continue
			}
			s.stats.NaivePatternEvals += int64(len(d.q.Patterns())) * int64(n)
			if d.equal {
				// Equal constraint sets: the master's hits are exactly this
				// dependent's, no residual re-examination needed.
				for i, mh := range b.master {
					put(i, d.slot, mh)
				}
				continue
			}
			for i, mh := range b.master {
				if len(mh) == 0 {
					continue
				}
				start, evals := len(buf), 0
				buf, evals = d.q.ResidualHits(buf, evs[i], mh)
				s.stats.PatternEvals += int64(evals)
				put(i, d.slot, buf[start:len(buf):len(buf)])
			}
		}
	}
	b.hits = buf
	return out
}

// ProcessWithHits is the ingestion half of Process: it folds one event into
// every active query's state using hit sets computed elsewhere (by an
// evaluating scheduler over replicas of the same queries, at the same point
// of the same total event order). Queries absent from the HitSet's layout
// ingest with no hits. hs must still be live — consumed before the evaluating
// scheduler's next EvaluateBatch — or the call panics. No engine path calls
// it: the repo benchmark's staged replica (bench/staged.go) times the fold
// layer on its own through it.
func (s *Scheduler) ProcessWithHits(ev *event.Event, hs *HitSet) []*engine.Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Events++
	if hs == nil {
		return s.ingestLocked(ev, nil, nil)
	}
	hs.AssertLive()
	return s.ingestLocked(ev, hs.Layout, hs.Hits)
}

// evaluateLocked computes the per-slot hit sets for ev and maintains the
// sharing counters. Only active queries count toward the naive baselines,
// and a fully paused group is skipped outright (a paused master still
// evaluates its patterns when an active dependent needs the shared hits).
// Hit-slot slices are carved out of *arena (grown to cover up to remaining
// further events) so batch evaluation allocates once, not per event. The
// caller holds s.mu.
//
// It serves Process, the serial path, one event at a time; the router
// evaluates whole submission batches with evaluateBatchLocked. The two look
// like a duplicate but each is the faster one at its batch size. Running
// Process through evaluateBatchLocked on a batch of one was measured on the
// repository benchmark (seed 13, 8 s runs, alternating pairs on a 2-core
// box): serial_events_per_s fell to ×0.685 on raw-cold and ×0.746 on
// durable, 0 of 6 pairs better. There every query is pinned to one host by a
// global agentid constraint and 96% of events match no query: AppendHits
// returns as soon as the global constraint fails, while MatchBatch still
// visits every pattern (an early exit in MatchBatch won back only part of
// it). Do not merge them without removing that per-event cost.
//
//saql:hotpath
func (s *Scheduler) evaluateLocked(ev *event.Event, arena *[][]int, remaining int) [][]int {
	s.resolveSlotsLocked(s.layoutLocked())
	// The hit sets themselves live in one buffer kept across events: the
	// serial path consumes them under this lock hold.
	buf := s.hitScratch[:0]
	var hits [][]int // carved from the arena on the first non-empty hit set
	put := func(slot int, h []int) {
		if len(h) == 0 || slot < 0 {
			return
		}
		if hits == nil {
			n := len(s.layout.Slots)
			if len(*arena) < n {
				*arena = make([][]int, n*remaining)
			}
			hits = (*arena)[:n:n]
			*arena = (*arena)[n:]
		}
		hits[slot] = h
	}
	for _, g := range s.groups {
		masterActive := !g.master.Paused()
		active := 0
		if masterActive {
			active++
		}
		for _, d := range g.dependents {
			if !d.q.Paused() {
				active++
			}
		}
		if active == 0 {
			continue
		}
		s.stats.StreamCopies++
		s.stats.NaiveCopies += int64(active)
		nPat := int64(len(g.master.Patterns()))
		s.stats.PatternEvals += nPat
		if masterActive {
			s.stats.NaivePatternEvals += nPat
		}

		start := len(buf)
		buf = g.master.AppendHits(buf, ev)
		mh := buf[start:len(buf):len(buf)]
		put(g.slot, mh)

		for _, d := range g.dependents {
			if d.q.Paused() {
				continue
			}
			s.stats.NaivePatternEvals += int64(len(d.q.Patterns()))
			if len(mh) == 0 {
				continue
			}
			if d.equal {
				// Equal constraint sets: the master's hits are exactly this
				// dependent's, no residual re-examination needed.
				put(d.slot, mh)
				continue
			}
			start, evals := len(buf), 0
			buf, evals = d.q.ResidualHits(buf, ev, mh)
			s.stats.PatternEvals += int64(evals)
			put(d.slot, buf[start:len(buf):len(buf)])
		}
	}
	s.hitScratch = buf
	return hits
}

// ingestLocked folds ev into every active query using the per-slot hit
// sets (hits may be nil: no query matched), set by set. Every active query
// observes the event even with no hits — stateful queries must observe the
// watermark so windows close on time. A rule set's members each ingest their
// hits; a stateful set offers the event to its slice log, which keys the hits
// through the set's key class (one evaluation and one probe per event per
// pattern per class), logs them, and seals when the event's time reaches the
// end of the slice. The caller holds s.mu.
//
//saql:hotpath
func (s *Scheduler) ingestLocked(ev *event.Event, layout *Layout, hits [][]int) []*engine.Alert {
	if hits != nil || !s.resolved {
		s.resolveSlotsLocked(layout)
	}
	s.seq++
	var alerts []*engine.Alert
	for i := range s.sets {
		ls := &s.sets[i]
		if ls.log == nil {
			for k, q := range ls.members {
				if !q.Paused() {
					alerts = append(alerts, q.Ingest(ev, slotHits(hits, ls.slots[k]), s.report)...)
				}
			}
			continue
		}
		if ls.log.Idle() {
			continue
		}
		alerts = append(alerts, ls.log.Offer(s.seq, ev, ls.hits(hits))...)
	}
	s.stats.Alerts += int64(len(alerts))
	return alerts
}

// hits returns a stateful set's hit set in hits: its first active member's.
// The members' hit sets are one slice by construction, except that the
// evaluation leaves a paused dependent's empty.
//
//saql:hotpath
func (ls *localSet) hits(hits [][]int) []int {
	for k, q := range ls.members {
		if !q.Paused() {
			return slotHits(hits, ls.slots[k])
		}
	}
	return nil
}

// slotHits returns slot's hit set in hits: none for a slot hits does not
// cover.
//
//saql:hotpath
func slotHits(hits [][]int, slot int) []int {
	if slot < 0 || slot >= len(hits) {
		return nil
	}
	return hits[slot]
}

// Apply executes one routed entry: the ops the router resolved for ev on this
// shard, grouped by variant set. A stateful set's log first observes wm, the
// stream watermark the router saw just before this event — sealing, if it
// reached the end of the slice, so windows close at the same stream points as
// in the serial engine, where every event advances every query's watermark —
// then takes the set's ops: a fold's key resolved to its group id once for the
// set, one directory probe per event per pattern per key class
// (engine.KeyClass.Routed) under the hash the router computed, and logged; a
// touch flagged on the slice; a key failure reported. Then it observes the
// event's own time, as the serial fold does. A rule set's hits op runs on each
// local member that is not paused. Nothing here evaluates a pattern or a key
// or asks who owns what: a replica folds exactly what it is handed. Sets the
// entry does not name are left alone; AdvanceAll at the batch boundary brings
// them to the stream watermark.
//
//saql:hotpath
func (s *Scheduler) Apply(layout *Layout, ev *event.Event, wm time.Time, hasWM bool, ops []Op) []*engine.Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resolveSlotsLocked(layout)
	s.seq++
	var alerts []*engine.Alert
	for i := 0; i < len(ops); {
		set := ops[i].Set
		j := i + 1
		for j < len(ops) && ops[j].Set == set {
			j++
		}
		alerts = s.applySet(&s.sets[set], ev, wm, hasWM, ops[i:j], alerts)
		i = j
	}
	s.stats.Alerts += int64(len(alerts))
	return alerts
}

// applySet runs one variant set's ops of an entry, appending the alerts
// raised to alerts.
//
//saql:hotpath
func (s *Scheduler) applySet(ls *localSet, ev *event.Event, wm time.Time, hasWM bool, ops []Op, alerts []*engine.Alert) []*engine.Alert {
	l := ls.log
	if l == nil {
		for k := range ops { // a rule set's one hits op
			h := s.hitScratch[:0]
			for m := ops[k].Arg; m != 0; m &= m - 1 {
				h = append(h, bits.TrailingZeros64(m))
			}
			s.hitScratch = h
			for _, q := range ls.members {
				if !q.Paused() {
					alerts = append(alerts, q.Ingest(ev, h, s.report)...)
				}
			}
		}
		return alerts
	}
	if l.Idle() {
		return alerts
	}
	if hasWM {
		alerts = append(alerts, l.Advance(wm)...)
	}
	for k := range ops {
		switch op := &ops[k]; op.Kind {
		case OpFold:
			l.Add(ev, int(op.Pat), ls.kc.Routed(s.seq, int(op.Pat), uint32(op.Arg), op.Key))
		case OpKeyErr:
			l.KeyFailed(ev.Time, ls.kc.Failed(s.seq, int(op.Pat), ev))
		case OpTouch:
			l.Touch(ev.Time)
		}
	}
	return append(alerts, l.Advance(ev.Time)...)
}

// AdvanceAll has every stateful set observe wm, sealing the logs it brings to
// the end of their slice and closing the windows their members then finish:
// the batch-boundary watermark broadcast of the partitioned router. Sets whose
// members are all paused are skipped — their watermarks freeze exactly as they
// do in the serial engine, which stops offering them events entirely.
//
//saql:hotpath
func (s *Scheduler) AdvanceAll(wm time.Time) []*engine.Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.resolved {
		s.resolveSlotsLocked(nil)
	}
	var alerts []*engine.Alert
	for i := range s.sets {
		if l := s.sets[i].log; l != nil && !l.Idle() {
			alerts = append(alerts, l.Advance(wm)...)
		}
	}
	s.stats.Alerts += int64(len(alerts))
	return alerts
}

// Flush closes all open windows on every query (end of stream).
func (s *Scheduler) Flush() []*engine.Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	var alerts []*engine.Alert
	for _, g := range s.groups {
		alerts = append(alerts, g.master.Flush(s.report)...)
		for _, d := range g.dependents {
			alerts = append(alerts, d.q.Flush(s.report)...)
		}
	}
	s.stats.Alerts += int64(len(alerts))
	return alerts
}

func (s *Scheduler) reportFn() func(error) {
	if s.reporter == nil {
		return func(error) {}
	}
	return func(err error) {
		if qe, ok := err.(*engine.QueryError); ok {
			s.reporter.Report(qe.Query, qe.Err)
			return
		}
		s.reporter.Report("", err)
	}
}

// Stats returns a snapshot of the scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.KeyEvals, out.GroupProbes = s.retired.KeyEvals, s.retired.GroupProbes
	for _, kc := range s.keyed {
		out.KeyEvals += kc.KeyEvals
		out.GroupProbes += kc.Probes
	}
	return out
}

// ---------------------------------------------------------------------------
// Semantic compatibility
// ---------------------------------------------------------------------------

// signature canonicalises the structural shape shared hits depend on: the
// ordered list of (subject type, operations, object type) per pattern.
// Constraints are deliberately excluded — subsumption handles them.
func signature(q *ast.Query) string {
	var sb strings.Builder
	for _, p := range q.Patterns {
		sb.WriteString(p.Subject.Type.String())
		sb.WriteByte(':')
		ops := make([]string, len(p.Ops))
		for i, o := range p.Ops {
			ops[i] = o.String()
		}
		sort.Strings(ops)
		sb.WriteString(strings.Join(ops, "|"))
		sb.WriteByte(':')
		sb.WriteString(p.Object.Type.String())
		sb.WriteByte(';')
	}
	return sb.String()
}

// subsumes reports whether master's matches are a superset of dep's for
// every pattern: master's constraints (global and per-entity) must all
// appear in dep's constraint sets, so every event dep would match, master
// matches too. Patterns are compared positionally (same signature).
func subsumes(master, dep *ast.Query) bool {
	if len(master.Patterns) != len(dep.Patterns) {
		return false
	}
	if !constraintSubset(globalStrings(master), globalStrings(dep)) {
		return false
	}
	for i := range master.Patterns {
		mp, dp := master.Patterns[i], dep.Patterns[i]
		if !constraintSubset(entityConstraintStrings(mp.Subject), entityConstraintStrings(dp.Subject)) {
			return false
		}
		if !constraintSubset(entityConstraintStrings(mp.Object), entityConstraintStrings(dp.Object)) {
			return false
		}
	}
	return true
}

func globalStrings(q *ast.Query) []string {
	out := make([]string, 0, len(q.Globals))
	for _, g := range q.Globals {
		out = append(out, g.String())
	}
	return out
}

func entityConstraintStrings(e *ast.EntityPattern) []string {
	out := make([]string, 0, len(e.Constraints))
	for _, c := range e.Constraints {
		out = append(out, c.String())
	}
	return out
}

// constraintSubset reports a ⊆ b by canonical string equality.
func constraintSubset(a, b []string) bool {
	if len(a) > len(b) {
		return false
	}
	set := make(map[string]bool, len(b))
	for _, s := range b {
		set[s] = true
	}
	for _, s := range a {
		if !set[s] {
			return false
		}
	}
	return true
}
