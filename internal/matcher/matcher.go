// Package matcher implements the multievent matcher of the SAQL engine: it
// pairs each event pattern with its compiled predicates (internal/pcode) and
// matches the event stream against multi-pattern rule queries, enforcing
// cross-pattern entity joins (the same variable bound in several patterns
// must denote the same entity) and the temporal order required by the
// `with evt1 -> evt2` clause.
package matcher

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"saql/internal/ast"
	"saql/internal/event"
	"saql/internal/pcode"
)

// Pattern is a compiled event pattern: an operation set and the two entity
// predicates, all evaluated by internal/pcode programs.
type Pattern struct {
	Index   int
	Alias   string
	SubjVar string
	ObjVar  string
	opsMask uint32 // bit per event.Op
	subj    *pcode.EntityProg
	obj     *pcode.EntityProg
}

// Compile compiles an AST event pattern. fb receives string-fallback counts;
// nil selects the process-wide counter.
func Compile(idx int, p *ast.EventPattern, fb *atomic.Int64) *Pattern {
	var mask uint32
	for _, o := range p.Ops {
		mask |= 1 << uint(o)
	}
	return &Pattern{
		Index:   idx,
		Alias:   p.Alias,
		SubjVar: p.Subject.Var,
		ObjVar:  p.Object.Var,
		opsMask: mask,
		subj:    pcode.CompileEntity(p.Subject, fb),
		obj:     pcode.CompileEntity(p.Object, fb),
	}
}

// Ops is the pattern's operation set, bit event.Op: an event whose operation
// is not in it never matches.
func (p *Pattern) Ops() uint32 { return p.opsMask }

// Matches reports whether ev satisfies the pattern's operation set and both
// entity predicates.
//
//saql:hotpath
func (p *Pattern) Matches(ev *event.Event) bool {
	return p.opsMask&(1<<uint(ev.Op)) != 0 && p.subj.Match(&ev.Subject) && p.obj.Match(&ev.Object)
}

// Match is a completed multi-pattern match: one event per pattern plus the
// consistent entity bindings. Entities point into the matched events:
// retained, never written.
type Match struct {
	Events   []*event.Event  // indexed by pattern index
	Entities []*event.Entity // indexed by variable slot (SeqMatcher.Vars)
	At       time.Time       // time of the completing event
}

// partial is an in-flight multi-pattern match: its events and its progress.
// The entities it binds are derived from its events (SeqMatcher.bound).
type partial struct {
	events   []*event.Event // indexed by pattern index, nil where unmatched
	matched  int            // bitmask of matched pattern indices
	nOrdered int            // how many of the ordered patterns are matched
	lastTime time.Time
	created  time.Time
}

// SeqMatcher matches a conjunction of patterns with optional temporal
// ordering over a subset of them, maintaining a bounded partial-match table.
type SeqMatcher struct {
	patterns []*Pattern
	// vars are the entity variables in order of first appearance, a
	// variable's index its slot in Match.Entities; slots[i] are pattern i's
	// subject and object slots, -1 where unnamed.
	vars  []string
	slots [][2]int
	// orderPos[i] = position of pattern i in the temporal order, or -1.
	orderPos []int
	horizon  time.Duration // partial matches older than this expire
	maxPart  int           // cap on live partials

	partials []*partial

	// Stats.
	Expired int64 // partials dropped by horizon
	Dropped int64 // partials dropped by capacity
}

// Config bounds the matcher's partial-match table.
type Config struct {
	// Horizon is the maximum age of a partial match; zero means 10 minutes.
	Horizon time.Duration
	// MaxPartials caps the number of live partial matches; zero means 4096.
	MaxPartials int
}

// NewSeqMatcher builds a sequence matcher for the compiled patterns.
// temporalOrder lists pattern indices that must occur in time order (may be
// empty for an unordered conjunctive match).
func NewSeqMatcher(patterns []*Pattern, temporalOrder []int, cfg Config) (*SeqMatcher, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("matcher: no patterns")
	}
	if len(patterns) > 63 {
		return nil, fmt.Errorf("matcher: too many patterns (%d > 63)", len(patterns))
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 10 * time.Minute
	}
	if cfg.MaxPartials <= 0 {
		cfg.MaxPartials = 4096
	}
	orderPos := make([]int, len(patterns))
	for i := range orderPos {
		orderPos[i] = -1
	}
	for pos, idx := range temporalOrder {
		if idx < 0 || idx >= len(patterns) {
			return nil, fmt.Errorf("matcher: temporal order references pattern %d of %d", idx, len(patterns))
		}
		if orderPos[idx] != -1 {
			return nil, fmt.Errorf("matcher: pattern %d appears twice in temporal order", idx)
		}
		orderPos[idx] = pos
	}
	m := &SeqMatcher{
		patterns: patterns,
		slots:    make([][2]int, len(patterns)),
		orderPos: orderPos,
		horizon:  cfg.Horizon,
		maxPart:  cfg.MaxPartials,
	}
	for i, p := range patterns {
		m.slots[i] = [2]int{m.slot(p.SubjVar), m.slot(p.ObjVar)}
	}
	return m, nil
}

// Empty returns a matcher sharing m's patterns, variables, order and bounds,
// all fixed once NewSeqMatcher returns, and none of its partials or counts.
func (m *SeqMatcher) Empty() *SeqMatcher {
	return &SeqMatcher{
		patterns: m.patterns, vars: m.vars, slots: m.slots,
		orderPos: m.orderPos, horizon: m.horizon, maxPart: m.maxPart,
	}
}

// slot returns name's slot, assigning the next free one at first sight.
func (m *SeqMatcher) slot(name string) int {
	if name == "" {
		return -1
	}
	if i := slices.Index(m.vars, name); i >= 0 {
		return i
	}
	m.vars = append(m.vars, name)
	return len(m.vars) - 1
}

// Vars lists the entity variables by their slot in Match.Entities.
func (m *SeqMatcher) Vars() []string { return m.vars }

// PartialCount reports the live partial-match table size.
func (m *SeqMatcher) PartialCount() int { return len(m.partials) }

// ObserveHits feeds one event with the patterns it hit and returns any
// completed matches. The matcher trusts the hits: the query's master
// evaluates the patterns and the global constraints once
// (engine.Query.MatchBatch) and its dependents reuse the hit set.
func (m *SeqMatcher) ObserveHits(ev *event.Event, hits []int) []*Match {
	if len(hits) == 0 {
		return nil
	}

	// Single-pattern queries complete immediately.
	if len(m.patterns) == 1 {
		return []*Match{m.finish(&partial{events: []*event.Event{ev}, lastTime: ev.Time})}
	}

	m.expire(ev.Time)

	full := 1<<uint(len(m.patterns)) - 1
	var complete []*Match
	var created []*partial
	for _, hit := range hits {
		bit := 1 << uint(hit)
		// Try to extend existing partials.
		for _, pt := range m.partials {
			if pt.matched&bit != 0 {
				continue // pattern already matched in this partial
			}
			if !m.orderAllows(pt, hit) || !m.joins(pt, hit, ev) {
				continue
			}
			np := m.extend(pt, hit, ev)
			if np.matched == full {
				complete = append(complete, m.finish(np))
			} else {
				created = append(created, np)
			}
		}
		// Seed a fresh partial if this pattern can start one (unordered
		// patterns always can; ordered ones only from position 0).
		if m.orderPos[hit] <= 0 {
			np := m.extend(&partial{created: ev.Time}, hit, ev)
			if np.matched == full {
				complete = append(complete, m.finish(np))
			} else {
				created = append(created, np)
			}
		}
	}

	// Admit new partials under the capacity cap.
	for _, np := range created {
		if len(m.partials) >= m.maxPart {
			m.Dropped++
			continue
		}
		m.partials = append(m.partials, np)
	}
	return complete
}

// orderAllows checks whether pattern idx may match now given the temporal
// positions already filled in pt.
func (m *SeqMatcher) orderAllows(pt *partial, idx int) bool {
	pos := m.orderPos[idx]
	if pos == -1 {
		return true // unordered pattern
	}
	return pos == pt.nOrdered // next required position
}

// bound returns the entity pt binds to variable slot v, nil if no matched
// pattern names v: the last matched pattern naming v decides, with its
// object if it names v there, otherwise its subject. Every other matched
// pattern naming v was joined to that entity when it was matched, on each
// side it names v.
func (m *SeqMatcher) bound(pt *partial, v int) *event.Entity {
	for i := len(pt.events) - 1; i >= 0; i-- {
		ev := pt.events[i]
		if ev == nil {
			continue
		}
		if m.slots[i][1] == v {
			return &ev.Object
		}
		if m.slots[i][0] == v {
			return &ev.Subject
		}
	}
	return nil
}

// joins reports whether ev, as pattern idx's match, names on each side the
// entity pt already binds to that side's variable (the entity join).
func (m *SeqMatcher) joins(pt *partial, idx int, ev *event.Event) bool {
	if s := m.slots[idx][0]; s >= 0 {
		if e := m.bound(pt, s); e != nil && !e.Same(&ev.Subject) {
			return false
		}
	}
	if s := m.slots[idx][1]; s >= 0 {
		if e := m.bound(pt, s); e != nil && !e.Same(&ev.Object) {
			return false
		}
	}
	return true
}

func (m *SeqMatcher) extend(pt *partial, idx int, ev *event.Event) *partial {
	np := &partial{
		events:   make([]*event.Event, len(m.patterns)),
		matched:  pt.matched | 1<<uint(idx),
		nOrdered: pt.nOrdered,
		lastTime: ev.Time,
		created:  pt.created,
	}
	copy(np.events, pt.events)
	np.events[idx] = ev
	if m.orderPos[idx] != -1 {
		np.nOrdered++
	}
	return np
}

// finish turns a partial with every pattern matched into its Match.
func (m *SeqMatcher) finish(pt *partial) *Match {
	match := &Match{
		Events:   pt.events,
		Entities: make([]*event.Entity, len(m.vars)),
		At:       pt.lastTime,
	}
	for v := range match.Entities {
		match.Entities[v] = m.bound(pt, v)
	}
	return match
}

// expire drops partials older than the horizon.
func (m *SeqMatcher) expire(now time.Time) {
	cutoff := now.Add(-m.horizon)
	kept := m.partials[:0]
	for _, pt := range m.partials {
		if pt.created.Before(cutoff) {
			m.Expired++
			continue
		}
		kept = append(kept, pt)
	}
	m.partials = kept
}
