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
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"saql/internal/ast"
	"saql/internal/engine"
	"saql/internal/event"
	"saql/internal/window"
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
	// PatternEvals counts the pattern predicates of the masters actually run
	// — every master on every event, except that a master pinned to one
	// agentid runs only on that agentid's events (see agentKey) — plus the
	// dependents' re-examinations of master-matched events.
	PatternEvals int64
	// NaivePatternEvals counts what per-query execution would have
	// performed (every active query evaluates every pattern on every
	// event).
	NaivePatternEvals int64
	// KeyEvals counts group-by key evaluations performed: once per event per
	// hit pattern per key class, however many of the class's queries the hit
	// reaches, in the resolve step of the evaluating scheduler (resolveLocked:
	// serial Process, or a started engine's router) — plus, for a key that
	// fails, the one re-derivation of its error by the fold that reports it
	// (engine.KeyClass.Failed). Both are the same at every shard count, serial
	// included.
	KeyEvals int64
	// GroupProbes counts key class directory probes: the one lookup per
	// event per hit pattern per key class — per shard that folds it, on a
	// started engine — that turns a key into the group id every member folds
	// by. On the serial path it equals the keys that evaluated.
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
// of one detection. Every other query is a set of its own. The resolve step
// (resolveLocked) resolves a hit once per set, not once per member.
type VariantSet struct {
	Slots []int // the members' slots, ascending
	// Class is the members' key class: an id the scheduler assigned at Add,
	// never reused, shared with every consumer of the layout; -1 for rule
	// queries.
	Class int32
	// Specs are a stateful set's distinct window specs: within one slice of
	// them (window.Slice) every hit opens the same windows of every member.
	Specs []window.Spec
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
// scheduler (EvaluateBatch), and their resolution. Hits is indexed by Layout
// slot; an empty entry means the query matched nothing. Sets is the resolve
// step's product (resolveLocked): what each variant set with an active hit
// does with the event, the one form every consumer folds or routes. It lives
// in scratch the evaluating scheduler owns and is valid only until that
// scheduler's next evaluation (EvaluateBatch, or Process): whoever consumes it
// — the runtime's router into ops by ownership, the benchmark's staged fold
// through ProcessWithHits — does so before evaluating the next batch, on the
// evaluating goroutine. Each HitSet is stamped with its batch's generation,
// and consuming one that outlived its batch panics (AssertLive) rather than
// folding whatever the scratch holds by then.
type HitSet struct {
	Layout *Layout
	Hits   [][]int
	Sets   []SetHits

	gen uint64
	cur *atomic.Uint64 // the evaluating scheduler's current generation
}

// SetHits is one variant set's share of an evaluated event (Layout.Sets[Set]):
// its hit patterns — its first active member's, which by construction are
// every active member's — and, for a stateful set, Keys[k], the group key of
// Hits[k].
type SetHits struct {
	Set  int32
	Hits []int
	Keys []Key // nil for a rule set
}

// Key is a hit's group key as its key class yields it: the key, its ownership
// hash (window.HashKey, which the class directories probe with), and whether
// it failed to evaluate — then it is the empty key, whose owner reports the
// failure.
type Key struct {
	Key    string
	Hash   uint32
	Failed bool
}

// FoldOp is the op hit k of a stateful set becomes where it folds: a fold
// under its key, or the key's failure.
//
//saql:hotpath
func (sh *SetHits) FoldOp(k int) Op {
	hi, key := sh.Hits[k], &sh.Keys[k]
	if key.Failed {
		return Op{Kind: OpKeyErr, Set: sh.Set, Pat: uint8(hi)}
	}
	return Op{Kind: OpFold, Set: sh.Set, Pat: uint8(hi), Key: key.Key, Arg: uint64(key.Hash)}
}

// HitsOp is the op a rule set's hits become: their pattern set.
//
//saql:hotpath
func (sh *SetHits) HitsOp() Op {
	op := Op{Kind: OpHits, Set: sh.Set}
	for _, hi := range sh.Hits {
		op.Arg |= 1 << uint(hi)
	}
	return op
}

// AssertLive panics if the evaluating scheduler has evaluated again since h
// was computed: h's tables have been reused and name other events' hits.
// Only a bug in the caller — holding a HitSet across evaluations — gets
// here.
//
//saql:hotpath
func (h *HitSet) AssertLive() {
	if h.cur != nil && h.cur.Load() != h.gen {
		panic(fmt.Sprintf("scheduler: stale HitSet: computed by batch %d, consumed during batch %d (a HitSet is valid only until its scheduler's next evaluation)", h.gen, h.cur.Load()))
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
	// groups, and has had no fold, key error or touch of the set in the
	// hit's slice since the last control. Nothing folds; the windows open,
	// so that window cadence is the same on every replica. A touch inside
	// the set's log slice is a flag on the slice: every instant of it opens
	// the same windows.
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
	// pin is the key id (Scheduler.agents) of the one agentid the master's
	// global constraints admit, -1 when they admit any; set with the layout.
	pin int32
	// ops is the union of the master's patterns' operation sets, set with
	// the plan (planLocked): an event whose operation is outside it hits no
	// pattern of the master, and so none of a dependent's, which only refines
	// the master's hits.
	ops uint32
	// equal are the slots of the active equal dependents, set with the plan:
	// the master's sweep writes its hits into them in the same pass.
	equal []int
}

// active counts the group's unpaused queries and the pattern evaluations
// running each of them on its own would cost per event: the naive baselines.
//
//saql:hotpath
func (g *group) active() (n int, naivePatterns int64) {
	if !g.master.Paused() {
		n++
		naivePatterns += int64(len(g.master.Patterns()))
	}
	for _, d := range g.dependents {
		if !d.q.Paused() {
			n++
			naivePatterns += int64(len(d.q.Patterns()))
		}
	}
	return n, naivePatterns
}

// evalPlan is what an evaluation visits, derived with the layout and again at
// every SetPaused: the groups with an active query, split by their pin, each
// with its operation set (group.ops), and the sharing counters they add per
// event. A batch of one sweeps only the groups whose set holds its event's
// operation (evaluateBatchLocked).
type evalPlan struct {
	// Per event: one stream copy per such group, one naive copy per active
	// query, and the patterns per-query execution would evaluate.
	copies, naiveCopies, naiveEvals int64
	free                            []*group   // no agentid pin, in group order
	pinned                          [][]*group // by agentid key, in group order; nil when none
}

// planLocked derives s.plan from the groups, their pins and the paused flags,
// and gives every planned group its master's operation set (opSet), which
// bounds every dependent's hits too, and the layout slots of its active equal
// dependents. The caller holds s.mu, and s.layout is current.
func (s *Scheduler) planLocked() {
	p := evalPlan{}
	for _, g := range s.groups {
		active, naive := g.active()
		if active == 0 {
			continue
		}
		g.ops = opSet(g.master)
		g.equal = g.equal[:0]
		for _, d := range g.dependents {
			if d.equal && !d.q.Paused() {
				g.equal = append(g.equal, s.layout.Slots[d.q.Name])
			}
		}
		p.copies++
		p.naiveCopies += int64(active)
		p.naiveEvals += naive
		if g.pin < 0 {
			p.free = append(p.free, g)
			continue
		}
		if p.pinned == nil {
			p.pinned = make([][]*group, len(s.agents))
		}
		p.pinned[g.pin] = append(p.pinned[g.pin], g)
	}
	s.plan = p
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
	// memo is the key class's resolve memo (resolveLocked), one backing array
	// per class: by pattern, the key of the event last resolved.
	memo []memoKey
}

// memoKey is one pattern's key for the event the resolve step numbered seq.
type memoKey struct {
	seq uint64
	key Key
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
	// agents is the layout's agentid index, built with it: the folded
	// agentid of every pinned master (group.pin) under a dense key id, in
	// group order; empty when no master is pinned, and then no event is
	// looked up.
	agents map[string]int32
	// plan is the groups an evaluation visits (evalPlan), current whenever
	// layout is set.
	plan evalPlan
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
	// setOf maps a slot of the resolved layout to its set's index, runEnd to
	// the end of the run of consecutive slots of that set holding it, and
	// resolvedAt[set] is the resolve step's number of the last event it
	// resolved the set for.
	setOf, runEnd []int32
	resolvedAt    []uint64
	// seq numbers the events this scheduler folds: a key class memo is
	// current for the event whose number it holds.
	seq uint64
	// offered holds each registered query's events-offered count as of the
	// stream position (stats.Events) it was last brought up to
	// (offeredLocked).
	offered map[string]counted
	// hitScratch is where applySet expands an OpHits pattern set, and ops
	// where the serial fold builds a set's ops; both reused.
	hitScratch []int
	ops        []Op
	// batch is the evaluator's scratch: what EvaluateBatch returns, and the
	// slot table Process folds, live here until the next evaluation.
	batch batchScratch
	// report adapts the error reporter once at construction so the per-event
	// paths don't allocate a closure per call.
	report func(error)
	// wm is the serial fold's stream watermark; a shard's come from the router.
	wm event.Watermark
	// due bounds what an advance visits (advanceLocked): the smallest due
	// point (engine.SliceLog.Due) among the active slice logs as the last walk
	// over them left them, lowered by every log applySet advances, and
	// math.MinInt64 — walk them all — after a control point (syncLocked).
	// observed is the last stamp, in Unix nanoseconds, an advance below it
	// recorded without visiting a set, and behind says no walk has delivered
	// it since.
	due, observed int64
	behind        bool
}

// New creates a scheduler. reporter may be nil. sharing enables the
// master–dependent-query scheme; with sharing=false every query is executed
// independently (the configuration E3 uses as the SAQL-side ablation).
func New(reporter *engine.ErrorReporter, sharing bool) *Scheduler {
	s := &Scheduler{
		queries:  map[string]*engine.Query{},
		classOf:  map[string]int32{},
		keyed:    map[int32]*engine.KeyClass{},
		offered:  map[string]counted{},
		reporter: reporter,
		sharing:  sharing,
		due:      math.MinInt64,
	}
	s.report = s.reportFn()
	return s
}

// Add registers a compiled query, assigning it to a compatible group or
// creating a new one. Its events-offered counter goes on from what it has
// counted (offeredLocked).
func (s *Scheduler) Add(q *engine.Query) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.queries[q.Name]; dup {
		return fmt.Errorf("scheduler: duplicate query name %q", q.Name)
	}
	s.syncLocked()
	s.registerLocked(q)
	return nil
}

// registerLocked enters q, a name not registered, into the registry, its key
// class and a group, with its events-offered counter current. The caller
// holds s.mu.
func (s *Scheduler) registerLocked(q *engine.Query) {
	s.queries[q.Name] = q
	s.offered[q.Name] = counted{n: q.Stats().Events, at: s.stats.Events}
	s.classifyLocked(q)
	s.addLocked(q)
	s.invalidateLayoutLocked()
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
	s.syncLocked()
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
	delete(s.offered, name)
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
// the two halves. When carry is set and the old query exists, q first takes
// the old query's state blob — sliding-window state and counters, its
// events-offered count brought up to the swap (the caller has verified
// CanCarryStateFrom); if that fails, the old query stays registered and the
// error is returned. Group membership is recomputed: the new query joins
// whichever master–dependent group its constraints now place it in.
func (s *Scheduler) Swap(name string, q *engine.Query, carry bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncLocked()
	if old := s.queries[name]; old != nil {
		if carry {
			s.offeredLocked(old)
			if err := q.CarryStateFrom(old); err != nil {
				return err
			}
		}
		s.removeLocked(name)
	}
	if _, dup := s.queries[q.Name]; dup {
		// Unreachable when q.Name == name; guards misuse.
		return fmt.Errorf("scheduler: duplicate query name %q", q.Name)
	}
	s.registerLocked(q)
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
	s.syncLocked()
	s.settleLocked()
}

// syncLocked starts every control point — anything that reads, seals, pauses,
// restores or regroups a query between two events. It brings each active
// slice log to where visiting every set at every advance would have left it:
// an advance that visited no set (advanceLocked) recorded its stamp, which
// lies below every log's due point, so observing it seals nothing. And it has
// the next advance visit every set, since the control point may move any
// log's due point. The caller holds s.mu.
func (s *Scheduler) syncLocked() {
	if s.behind {
		t := time.Unix(0, s.observed)
		for i := range s.sets {
			if l := s.sets[i].log; l != nil && !l.Idle() {
				if s.observed >= l.Due() {
					panic("scheduler: an advance passed a slice log's due point without visiting it")
				}
				l.Advance(t)
			}
		}
		s.behind = false
	}
	s.due = math.MinInt64
}

// layoutLocked returns the layout of the current registry, deriving the slot
// assignment, the variant sets and the agentid index at the first call after
// a change. Sets come from what Add already decided — group membership, the
// equal flags, the key classes — so this is a pass over the slots, with no
// program compared; the index reads each master's compiled global
// constraints. The caller holds s.mu.
func (s *Scheduler) layoutLocked() *Layout {
	if s.layout != nil {
		return s.layout
	}
	s.layoutVersion++
	slots := make(map[string]int, len(s.queries))
	var sets []VariantSet
	n := 0
	s.agents = map[string]int32{}
	for _, g := range s.groups {
		g.pin = -1
		if agent, ok := g.master.AgentEq(); ok {
			id, seen := s.agents[agent]
			if !seen {
				id = int32(len(s.agents))
				s.agents[agent] = id
			}
			g.pin = id
		}
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
			vs := -1
			for k, i := range shared {
				if equal && sets[i].Class == class && founders[k].Placement() == q.Placement() {
					vs = i
					break
				}
			}
			if vs < 0 {
				if equal {
					shared, founders = append(shared, len(sets)), append(founders, q)
				}
				vs = len(sets)
				sets = append(sets, VariantSet{Class: class})
			}
			sets[vs].Slots = append(sets[vs].Slots, slot)
			if class >= 0 && !slices.Contains(sets[vs].Specs, q.WindowSpec()) {
				sets[vs].Specs = append(sets[vs].Specs, q.WindowSpec())
			}
		}
		place(g.master, true)
		for _, d := range g.dependents {
			place(d.q, d.equal)
		}
	}
	s.layout = &Layout{Version: s.layoutVersion, Slots: slots, Sets: sets}
	s.planLocked()
	return s.layout
}

// resolveSlotsLocked refreshes the per-group slot caches, the local variant
// sets with their slice logs and the key class states against target (nil:
// no layout, every local query a set of its own). It is a no-op when the
// caches already reflect target, so this happens once per layout change,
// never per event. The old sets' logs are settled first: their hits are
// folded and their members' watermarks brought up to what they observed. A
// class the new layout still names keeps its state — its directory, and with
// it every member's id index — across the change. Only a scheduler resolving
// against its own layout evaluates, so only it gets the key classes' resolve
// memos: a shard folds what its router resolved.
func (s *Scheduler) resolveSlotsLocked(target *Layout) {
	if s.resolved && s.resolvedFor == target {
		return
	}
	s.syncLocked()
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
	s.setOf, s.resolvedAt = make([]int32, n), make([]uint64, len(sets))
	keyed := map[int32]*engine.KeyClass{}
	var order []int32 // classes in first-set order
	logs := map[int32][]*engine.SliceLog{}
	memos := map[int32][]memoKey{}
	evaluating := target != nil && target == s.layout
	for i, vs := range sets {
		ls := &s.sets[i]
		for _, slot := range vs.Slots {
			s.setOf[slot] = int32(i)
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
			if evaluating {
				memos[vs.Class] = make([]memoKey, len(ls.members[0].Patterns()))
			}
			order = append(order, vs.Class)
		}
		ls.kc, ls.log, ls.memo = kc, engine.NewSliceLog(ls.members, kc, s.report), memos[vs.Class]
		logs[vs.Class] = append(logs[vs.Class], ls.log)
	}
	s.runEnd = make([]int32, n)
	for slot := n - 1; slot >= 0; slot-- {
		s.runEnd[slot] = int32(slot + 1)
		if slot+1 < n && s.setOf[slot+1] == s.setOf[slot] {
			s.runEnd[slot] = s.runEnd[slot+1]
		}
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
// query's slice log (engine.Query.SetPaused), once its events-offered counter
// is brought up to the stream: a paused span counts nothing.
func (s *Scheduler) SetPaused(name string, paused bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queries[name]
	if !ok {
		return false
	}
	s.syncLocked()
	s.offeredLocked(q)
	q.SetPaused(paused)
	if s.layout != nil {
		s.planLocked()
	}
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
	s.syncLocked()
	q, ok := s.queries[name]
	return q, ok
}

// QueryStats returns the registered query's counters, with its live state's
// size (StateBytes) and its events-offered counter brought up to the stream
// (offeredLocked), under the scheduler lock: reading them folds what the
// query's slice log holds, which must not interleave with Process.
func (s *Scheduler) QueryStats(name string) (engine.QueryStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queries[name]
	if !ok {
		return engine.QueryStats{}, false
	}
	s.syncLocked()
	s.offeredLocked(q)
	st := q.Stats()
	st.StateBytes = q.StateBytes()
	return st, true
}

// EventsOffered brings every registered query's events-offered counter up to
// the stream (offeredLocked) and reports them by name: where the events are
// evaluated is the one place that sees them all, so a started engine reads
// them off its router's scheduler at a control point, and a never-started
// engine's queries carry them into Start.
func (s *Scheduler) EventsOffered() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncLocked()
	out := make(map[string]int64, len(s.queries))
	for name, q := range s.queries {
		out[name] = s.offeredLocked(q)
	}
	return out
}

// counted is a query's events-offered count n as of stream position at.
type counted struct{ n, at int64 }

// offeredLocked brings q's events-offered counter (QueryStats.Events) up to
// this scheduler's stream and returns it. No fold sees every event offered to
// a query — a shard sees only what it owns, and a fold visits only the sets
// an event hits — so the scheduler that evaluates derives it: every event it
// evaluated since the count was last brought up was offered to q unless q was
// paused, and a pause changes only through SetPaused, which brings the count
// up first. The count starts from what the query had counted when it was
// registered (a serial warm-up, a restored blob, a carrying Swap), and takes
// the query's own counter where that is ahead — a blob merged into it by
// RestoreState — since the rule fold counts only the events it is handed.
// The caller holds s.mu.
func (s *Scheduler) offeredLocked(q *engine.Query) int64 {
	c := s.offered[q.Name]
	if !q.Paused() {
		c.n += s.stats.Events - c.at
	}
	c.n, c.at = max(c.n, q.Stats().Events), s.stats.Events
	s.offered[q.Name] = c
	q.SetEventsOffered(c.n)
	return c.n
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
// raised: the serial reference — evaluate, resolve, fold, under one lock hold
// — that every started engine is tested against. It is one shard that owns
// all state and sees every event: the router's evaluator on a batch of one
// (evaluateBatchLocked), the router's resolve step (resolveLocked), and the
// shard's fold (foldLocked, through applySet).
func (s *Scheduler) Process(ev *event.Event) []*engine.Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Events++
	s.evaluateBatchLocked([]*event.Event{ev})
	return s.foldLocked(ev, s.resolveLocked(ev, 0))
}

// batchScratch is the evaluator's memory, reused by the next evaluation: a
// steady stream evaluates without allocating.
type batchScratch struct {
	gen atomic.Uint64 // generation of the evaluation the scratch currently holds
	// handed says EvaluateBatch handed out HitSets of the current generation:
	// the next evaluation overwrites them, so it starts the next one.
	handed bool
	// EvaluateBatch's result slice and HitSet headers alternate between two
	// buffers, so what the previous batch handed out is not overwritten by
	// this one and still carries the old generation: a HitSet (or result
	// slice) consumed one batch late is always caught. Older ones alias live
	// headers eventually.
	res [2]struct {
		out  []*HitSet // per event; nil where nothing matched
		sets []HitSet  // headers of the events with hits
	}
	tables [][][]int // per event: its slot table, nil where nothing matched
	nSlots int       // the length of a slot table
	tbl    [][]int   // the slot tables, carved nSlots at a time
	free   [][]int   // what this evaluation has not carved of tbl
	// ranges is per event the slot ranges of the groups whose master it hit,
	// in the order they were swept, carved from rtbl beside the table
	// (nGroups at a time): every slot the event's table holds hits in lies in
	// one of them. The resolve step visits them, and the next evaluation
	// clears them, instead of the whole table, so every slot of tbl is nil
	// outside the tables of the evaluation that wrote it.
	ranges  [][]slotRange
	rtbl    []slotRange
	rfree   []slotRange
	nGroups int
	hits    []int // every hit set of the batch, back to back
	// The resolve step's product (resolveLocked): every event's resolved sets
	// and their keys, back to back, and the number of the event the key
	// memos were last stamped for.
	sets    []SetHits
	setKeys []Key
	seq     uint64

	master   [][]int  // the current group's master hits per event
	masks    []uint64 // its per-event pattern bitmasks
	globalOK []bool

	// The batch's positions by agentid key (bucket): the events of key
	// spans[j].key are at[spans[j].lo:spans[j].hi]. keys holds each event's
	// key; count is all zero between calls.
	keys, count, at []int32
	spans           []span
}

// span is one agentid key's bucket of a batch: its events' positions are
// batchScratch.at[lo:hi].
type span struct{ key, lo, hi int32 }

// slotRange is a group's slots in a slot table, [lo, hi): its master's and
// its dependents', which the layout numbers consecutively.
type slotRange struct{ lo, hi int32 }

// bucket sorts the batch's positions by agentid key (agentKey): one span per
// key the batch holds, in order of the key's first event, positions ascending
// within it. An event of an agentid no master is pinned to is in no span. It
// costs the batch's length, not the index's: a key absent from the batch is
// never touched.
//
//saql:hotpath
func (b *batchScratch) bucket(evs []*event.Event, agents map[string]int32) {
	keys := grown(b.keys, len(evs))
	if len(b.count) < len(agents) {
		b.count = make([]int32, len(agents))
	}
	count, spans := b.count, b.spans[:0]
	for i, ev := range evs {
		k := agentKey(agents, ev.AgentID)
		keys[i] = k
		if k >= 0 {
			if count[k] == 0 {
				spans = append(spans, span{key: k})
			}
			count[k]++
		}
	}
	// Each key's count becomes its span's end, filling backwards moves it to
	// the span's start, and the spans then zero what they counted.
	var total int32
	for j := range spans {
		sp := &spans[j]
		sp.lo = total
		total += count[sp.key]
		sp.hi = total
		count[sp.key] = total
	}
	at := grown(b.at, int(total))
	for i := len(evs) - 1; i >= 0; i-- {
		if k := keys[i]; k >= 0 {
			count[k]--
			at[count[k]] = int32(i)
		}
	}
	for _, sp := range spans {
		count[sp.key] = 0
	}
	b.keys, b.spans, b.at = keys, spans, at
}

// table returns event i's slot table, carving it at the event's first hit.
// The evaluator's own layout names every registered query, so no slot it
// writes is -1.
//
//saql:hotpath
func (b *batchScratch) table(i int) [][]int {
	if t := b.tables[i]; t != nil {
		return t
	}
	return b.carve(i)
}

// carve hands event i a slot table from tbl's uncarved rest, and the list of
// its hit groups beside it. The table is clear: the evaluation that last
// wrote it cleared its hit groups' slots (unwrite), or nothing ever has.
//
//saql:hotpath
func (b *batchScratch) carve(i int) [][]int {
	if len(b.free) < b.nSlots || len(b.rfree) < b.nGroups {
		// Tables already carved keep the old arrays alive for this
		// evaluation; the next one carves from the larger ones.
		b.tbl = make([][]int, max(2*len(b.tbl), hitTableChunk*b.nSlots))
		b.rtbl = make([]slotRange, max(2*len(b.rtbl), hitTableChunk*b.nGroups))
		b.free, b.rfree = b.tbl, b.rtbl
	}
	t := b.free[:b.nSlots:b.nSlots]
	b.free = b.free[b.nSlots:]
	b.tables[i], b.ranges[i] = t, b.rfree[:0:b.nGroups]
	b.rfree = b.rfree[b.nGroups:]
	return t
}

// unwrite clears the slots of the last evaluation's hit groups, table by
// table, and forgets its tables.
//
//saql:hotpath
func (b *batchScratch) unwrite() {
	for i, t := range b.tables {
		if t == nil {
			continue
		}
		for _, r := range b.ranges[i] {
			clear(t[r.lo:r.hi])
		}
		b.tables[i], b.ranges[i] = nil, nil
	}
}

// agentFoldLen is the longest agentid an event folds on the stack to look
// itself up; a longer one folds through strings.ToLower.
const agentFoldLen = 64

// agentKey returns the key id of an event's agentid in agents, the layout's
// agentid index, or -1 when no master is pinned to it. The agentid is folded
// the way pcode.EventProg.AgentEq folds a constant (foldAgent), anything
// foldAgent does not take by strings.ToLower.
//
//saql:hotpath
func agentKey(agents map[string]int32, agent string) int32 {
	var buf [agentFoldLen]byte
	var k int32
	var ok bool
	if n, ascii := foldAgent(&buf, agent); ascii {
		k, ok = agents[string(buf[:n])]
	} else {
		k, ok = agents[strings.ToLower(agent)] //saql:coldpath a non-ASCII or over-long agentid
	}
	if !ok {
		return -1
	}
	return k
}

// foldAgent folds an agentid as pcode.EventProg.AgentEq folds a constant,
// ASCII byte by byte into buf, and returns its length; ascii is false for an
// agentid that is not ASCII or is longer than buf, which foldAgent leaves to
// strings.ToLower. The dispatch index (agentKey) and the prefilter
// (Prefilter.Admit) look agentids up with this one fold.
//
//saql:hotpath
func foldAgent[T string | []byte](buf *[agentFoldLen]byte, agent T) (n int, ascii bool) {
	if len(agent) > len(buf) {
		return 0, false
	}
	for ; n < len(agent); n++ {
		c := agent[n]
		if c >= utf8.RuneSelf {
			return 0, false
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[n] = c
	}
	return n, true
}

// pos is the batch position of the k-th event a sweep visits: at[k], or k
// when the sweep visits every event (at nil).
//
//saql:hotpath
func pos(at []int32, k int) int {
	if at == nil {
		return k
	}
	return int(at[k])
}

// EvaluateBatch computes the shard-agnostic half of Process for a whole
// submission batch under one lock hold: every group's master pattern hits
// (once), refined into per-dependent residual hit sets, and resolved per
// variant set with their group keys (resolveLocked). It mutates no query
// state — only the scheduler's counters and key memos. It returns one HitSet
// per event, nil where nothing matched (consumers treat a nil HitSet as
// all-empty).
//
// Lifetime: the returned slice, the HitSets and every hit slice in them live
// in scratch this scheduler owns and are valid until its next evaluation —
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
//
//saql:hotpath
func (s *Scheduler) EvaluateBatch(evs []*event.Event) []*HitSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Events += int64(len(evs))
	tables := s.evaluateBatchLocked(evs)
	if tables == nil {
		return nil
	}
	b := &s.batch
	gen := b.gen.Load()
	b.handed = true
	res := &b.res[gen&1]
	out := grown(res.out, len(tables))
	sets := grown(res.sets, len(tables))[:0]
	for i, t := range tables {
		out[i] = nil
		if t != nil {
			sets = append(sets, HitSet{Layout: s.layout, Hits: t, Sets: s.resolveLocked(evs[i], i), gen: gen, cur: &b.gen})
			out[i] = &sets[len(sets)-1]
		}
	}
	res.out, res.sets = out, sets
	return out
}

// Skip counts n events that reached this evaluating scheduler only as
// skipped lines: a decoder's prefilter (Prefilter) found that no registered
// query can match them, so they were never built. They count as evaluated
// events that hit nothing — in Events, and so in every query's events
// offered, and in the sharing counters at the evaluation plan's per-event
// rates — except in PatternEvals, since no predicate ran on them.
func (s *Scheduler) Skip(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.layoutLocked()
	p := &s.plan
	s.stats.Events += n
	s.stats.StreamCopies += p.copies * n
	s.stats.NaiveCopies += p.naiveCopies * n
	s.stats.NaivePatternEvals += p.naiveEvals * n
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

// evaluateBatchLocked is the scheduler's one pattern evaluator: the router's
// EvaluateBatch runs it once per submission batch, serial Process on a batch
// of one. It returns each event's slot table — the hit set of every query by
// Layout slot, nil where nothing matched — living in s.batch until the next
// call. It visits only the groups of the evaluation plan (evalPlan): every
// active group no agentid pins sweeps the whole batch, and a pinned one only
// its agentid's bucket (bucket), so a query set with no pinned master looks
// nothing up. A batch of one — serial Process — sorts nothing: it looks its
// agentid up once (agentKey) and sweeps only the free groups and its key's
// pinned groups whose operation set (group.ops) holds its event's operation.
// A longer batch keeps its whole-batch column sweeps, where
// matcher.Pattern.Matches pays the operation test per event for less than
// splitting the batch by operation would cost. A group skipped by operation
// counts its master's patterns in PatternEvals, as a sweep that failed each
// at its operation test does, so the counters are the same on both paths.
// Slot tables exist only for events with hits — most events of a fleet-wide
// stream match no host-pinned query — and all of it is carved from s.batch.
// The sharing counters are the plan's per-event constants multiplied by the
// batch length, plus the predicates actually run, so stats are bit-identical
// however a stream is cut into batches. The caller holds s.mu and has already
// counted Events.
//
//saql:hotpath
func (s *Scheduler) evaluateBatchLocked(evs []*event.Event) [][][]int {
	n := len(evs)
	if n == 0 {
		return nil
	}
	s.resolveSlotsLocked(s.layoutLocked())
	b := &s.batch
	if b.handed {
		b.gen.Add(1) // whatever EvaluateBatch handed out is stale from here
		b.handed = false
	}
	b.unwrite()
	b.tables, b.ranges = grown(b.tables, n), grown(b.ranges, n)
	b.nSlots, b.nGroups = len(s.layout.Slots), len(s.groups)
	b.free, b.rfree, b.hits = b.tbl, b.rtbl, b.hits[:0]
	b.sets, b.setKeys = b.sets[:0], b.setKeys[:0]
	b.master = grown(b.master, n)
	b.masks = grown(b.masks, n)
	b.globalOK = grown(b.globalOK, n)

	p := &s.plan
	s.stats.StreamCopies += p.copies * int64(n)
	s.stats.NaiveCopies += p.naiveCopies * int64(n)
	s.stats.NaivePatternEvals += p.naiveEvals * int64(n)
	var evals int64
	if n == 1 {
		op := uint32(1) << evs[0].Op
		for _, g := range p.free {
			evals += s.sweepOneLocked(g, evs, op)
		}
		if p.pinned != nil {
			if k := agentKey(s.agents, evs[0].AgentID); k >= 0 {
				for _, g := range p.pinned[k] {
					evals += s.sweepOneLocked(g, evs, op)
				}
			}
		}
		s.stats.PatternEvals += evals
		return b.tables
	}
	for _, g := range p.free {
		evals += s.sweepLocked(g, evs, nil)
	}
	if p.pinned != nil {
		b.bucket(evs, s.agents)
		for _, sp := range b.spans {
			at := b.at[sp.lo:sp.hi]
			for _, g := range p.pinned[sp.key] {
				evals += s.sweepLocked(g, evs, at)
			}
		}
	}
	s.stats.PatternEvals += evals
	return b.tables
}

// sweepOneLocked sweeps group g over a batch of one whose event's operation
// is the bit op, unless no pattern of the master accepts it: then it counts
// the master's patterns, each of which a sweep would have failed at its
// operation test. The caller holds s.mu.
//
//saql:hotpath
func (s *Scheduler) sweepOneLocked(g *group, evs []*event.Event, op uint32) int64 {
	if g.ops&op == 0 {
		return int64(len(g.master.Patterns()))
	}
	return s.sweepLocked(g, evs, nil)
}

// sweepLocked runs group g over the batch positions at of evs, every event
// when at is nil, and returns the pattern predicates it evaluated. The
// master's patterns sweep the positions column by column (engine.MatchBatch
// writes per-event hit bitmasks, materialised into index slices in the
// batch's hit buffer, and written for the master and every active equal
// dependent in that one pass: their hits are the master's), then each active
// residual dependent refines the master's hits. A paused master still
// evaluates its patterns when an active dependent needs the shared hits. The
// caller holds s.mu.
//
//saql:hotpath
func (s *Scheduler) sweepLocked(g *group, evs []*event.Event, at []int32) int64 {
	b := &s.batch
	swept := len(evs)
	if at != nil {
		swept = len(at)
	}
	evals := int64(len(g.master.Patterns())) * int64(swept)
	// A query has at most sema.MaxPatterns (63) patterns, one mask bit each.
	g.master.MatchBatch(evs, at, b.masks, b.globalOK)
	master, buf := b.master[:swept], b.hits // master by sweep index
	hit := false
	for k := range master {
		i := pos(at, k)
		start := len(buf)
		for m := b.masks[i]; m != 0; m &= m - 1 {
			buf = append(buf, bits.TrailingZeros64(m))
		}
		mh := buf[start:len(buf):len(buf)]
		master[k] = mh
		if len(mh) > 0 {
			t := b.table(i)
			t[g.slot] = mh
			for _, slot := range g.equal {
				t[slot] = mh
			}
			b.ranges[i] = append(b.ranges[i], slotRange{int32(g.slot), int32(g.slot + 1 + len(g.dependents))})
			hit = true
		}
	}
	b.hits = buf
	if !hit || len(g.equal) == len(g.dependents) {
		return evals // nothing for the dependents to refine
	}
	for _, d := range g.dependents {
		if d.equal || d.q.Paused() {
			continue
		}
		for k, mh := range master {
			if len(mh) == 0 {
				continue
			}
			i := pos(at, k)
			start, e := len(buf), 0
			buf, e = d.q.ResidualHits(buf, evs[i], mh)
			evals += int64(e)
			if len(buf) > start {
				b.table(i)[d.slot] = buf[start:len(buf):len(buf)]
			}
		}
	}
	b.hits = buf
	return evals
}

// ProcessWithHits is the fold half of Process: it folds one event into every
// active query through the sets an evaluating scheduler resolved for it
// (HitSet.Sets, over replicas of the same queries at the same point of the
// same total event order), by the code Process and a shard fold with. Queries
// absent from the HitSet's layout only observe the stream watermark. hs must
// still be live — consumed before the evaluating scheduler's next
// EvaluateBatch — or the call panics. No engine path calls it: the repo
// benchmark's staged replica (bench/staged.go) times the fold layer on its
// own through it.
func (s *Scheduler) ProcessWithHits(ev *event.Event, hs *HitSet) []*engine.Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Events++
	if hs == nil {
		if !s.resolved {
			s.resolveSlotsLocked(nil)
		}
		return s.foldLocked(ev, nil)
	}
	hs.AssertLive()
	s.resolveSlotsLocked(hs.Layout)
	return s.foldLocked(ev, hs.Sets)
}

// resolveLocked is the resolve step of the evaluated event at position e of
// the batch — its slot table, nil where nothing matched — for every consumer
// alike: the router routes what it returns by ownership, and serial Process
// and ProcessWithHits fold it (foldLocked). For each variant set with an
// active hit, at the first of its slots that holds hits, it gives the set's
// hit list — its first active member's: the evaluation leaves a paused
// dependent's empty — and, for a stateful set, each hit pattern's key, hash
// and failure, evaluated once per event per pattern per key class on a
// member's key programs, through the class's memo, and counted in KeyEvals.
// It visits only the slots of the groups that hit the event, in ascending
// order, and once a set is resolved steps over the rest of its run of
// consecutive slots, so the sets come in order of their first slot with hits
// whatever the table's size.
// The result is carved from s.batch like the slot table, and dies with it.
// The caller holds s.mu and has evaluated under the current layout.
//
//saql:hotpath
func (s *Scheduler) resolveLocked(ev *event.Event, e int) []SetHits {
	b := &s.batch
	t, ranges := b.tables[e], b.ranges[e]
	if t == nil {
		return nil
	}
	// The sweeps visit the free groups, then the pinned ones: two runs in
	// slot order, which one insertion pass merges.
	for k := 1; k < len(ranges); k++ {
		for j := k; j > 0 && ranges[j-1].lo > ranges[j].lo; j-- {
			ranges[j-1], ranges[j] = ranges[j], ranges[j-1]
		}
	}
	b.seq++
	start := len(b.sets)
	for _, r := range ranges {
		for slot := r.lo; slot < r.hi; slot++ {
			if len(t[slot]) == 0 {
				continue
			}
			i := s.setOf[slot]
			resolved := s.resolvedAt[i] == b.seq // at an earlier member's slot
			// Either way the set is done: step over the rest of its run.
			slot = s.runEnd[slot] - 1
			if resolved {
				continue
			}
			s.resolvedAt[i] = b.seq
			ls := &s.sets[i]
			var h []int
			for k, q := range ls.members {
				if !q.Paused() {
					h = t[ls.slots[k]]
					break
				}
			}
			if len(h) == 0 {
				continue
			}
			sh := SetHits{Set: i, Hits: h}
			if ls.kc != nil {
				first := len(b.setKeys)
				for _, hi := range h {
					m := &ls.memo[hi]
					if m.seq != b.seq {
						key, err := ls.members[0].HitKey(hi, ev)
						*m = memoKey{seq: b.seq, key: Key{Key: key, Hash: window.HashKey(key), Failed: err != nil}}
						s.stats.KeyEvals++
					}
					b.setKeys = append(b.setKeys, m.key)
				}
				sh.Keys = b.setKeys[first:len(b.setKeys):len(b.setKeys)]
			}
			b.sets = append(b.sets, sh)
		}
	}
	if len(b.sets) == start {
		return nil
	}
	return b.sets[start:len(b.sets):len(b.sets)]
}

// foldLocked folds one event the way a shard folds what it owns, as the one
// shard that owns everything: each resolved set's hits become the ops a
// router would hand it — per hit of a stateful set a fold under its key or
// the key's failure, a rule set's hits one hits op — applied under the stamp
// a router gives the event, the stream watermark through it, which every
// other active stateful set then observes too. The caller holds s.mu and has
// resolved the slots against the sets' layout.
//
//saql:hotpath
func (s *Scheduler) foldLocked(ev *event.Event, sets []SetHits) []*engine.Alert {
	ops := s.ops[:0]
	for k := range sets {
		sh := &sets[k]
		if sh.Keys == nil {
			ops = append(ops, sh.HitsOp())
		} else {
			for j := range sh.Hits {
				ops = append(ops, sh.FoldOp(j))
			}
		}
	}
	s.ops = ops
	stamp := s.wm.Through(ev.Time)
	return s.advanceLocked(stamp, s.applyLocked(ev, stamp, ops))
}

// Apply executes one routed entry: the ops the router resolved for ev on this
// shard, grouped by variant set, under wm, the stream watermark through ev
// the router stamped it with. Nothing here evaluates a pattern or a key or
// asks who owns what: a replica folds exactly what it is handed. Sets the
// entry does not name are left alone; AdvanceAll at the batch boundary brings
// them to the stream watermark.
//
//saql:hotpath
func (s *Scheduler) Apply(layout *Layout, ev *event.Event, wm time.Time, ops []Op) []*engine.Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resolveSlotsLocked(layout)
	return s.applyLocked(ev, wm, ops)
}

// applyLocked runs an event's ops, stamped wm, set by set (applySet), and
// counts the alerts raised. The caller holds s.mu.
//
//saql:hotpath
func (s *Scheduler) applyLocked(ev *event.Event, wm time.Time, ops []Op) []*engine.Alert {
	s.seq++
	var alerts []*engine.Alert
	for i := 0; i < len(ops); {
		set := ops[i].Set
		j := i + 1
		for j < len(ops) && ops[j].Set == set {
			j++
		}
		alerts = s.applySet(&s.sets[set], ev, wm, ops[i:j], alerts)
		i = j
	}
	s.stats.Alerts += int64(len(alerts))
	return alerts
}

// applySet runs one variant set's ops of an event stamped wm, appending the
// alerts raised. A stateful set's log observes wm first — sealing if that
// ends its slice, so windows close and hits are judged late at the same
// stream points everywhere — then logs each fold under its group id (one
// probe per event, pattern and key class: KeyClass.Routed), flags a touch,
// reports a key failure. A rule set's hits op runs on each member not paused.
//
//saql:hotpath
func (s *Scheduler) applySet(ls *localSet, ev *event.Event, wm time.Time, ops []Op, alerts []*engine.Alert) []*engine.Alert {
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
	alerts = append(alerts, l.Advance(wm)...)
	s.due = min(s.due, l.Due())
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
	return alerts
}

// AdvanceAll has every stateful set observe wm, sealing the logs it brings to
// the end of their slice and closing the windows their members then finish:
// the batch-boundary watermark broadcast of the partitioned router. Like
// serial Process it visits the sets only once wm reaches the smallest of
// their due points (advanceLocked), so a batch that ends inside every set's
// slice costs one comparison. Sets whose members are all paused are skipped —
// their watermarks freeze exactly as they do in the serial engine, which
// stops offering them events entirely.
//
//saql:hotpath
func (s *Scheduler) AdvanceAll(wm time.Time) []*engine.Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.resolved {
		s.resolveSlotsLocked(nil)
	}
	return s.advanceLocked(wm, nil)
}

// Watermark brings the serial fold's stream watermark to w's, and returns it.
func (s *Scheduler) Watermark(w event.Watermark) event.Watermark {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := w.Time(); ok {
		s.wm.Through(t)
	}
	return s.wm
}

// advanceLocked has every active stateful set observe t, appending and counting
// the alerts of the windows their members then close. Below the smallest due
// point among the sets (s.due) no log seals, so it visits none: it records t,
// which every log observes at the next walk or control point (syncLocked).
// At or past it, it walks every active set in set order — the alerts come in
// the order a walk at every event gives them — and takes the bound afresh. So
// a set is visited once per due point the stream crosses, not once per event.
// The caller holds s.mu.
//
//saql:hotpath
func (s *Scheduler) advanceLocked(t time.Time, alerts []*engine.Alert) []*engine.Alert {
	if ns := t.UnixNano(); ns < s.due {
		s.observed, s.behind = ns, true
		return alerts
	}
	n := len(alerts)
	due := int64(math.MaxInt64)
	for i := range s.sets {
		if l := s.sets[i].log; l != nil && !l.Idle() {
			alerts = append(alerts, l.Advance(t)...)
			due = min(due, l.Due())
		}
	}
	s.due, s.behind = due, false
	s.stats.Alerts += int64(len(alerts) - n)
	return alerts
}

// Flush closes all open windows on every query (end of stream).
func (s *Scheduler) Flush() []*engine.Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncLocked()
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
	out.KeyEvals += s.retired.KeyEvals
	out.GroupProbes += s.retired.GroupProbes
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
