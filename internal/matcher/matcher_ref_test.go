package matcher

// Test-only oracle: the multievent matcher as it was before a partial match
// became its events alone. Each partial kept a name-keyed map of Entity.Key
// strings beside its events, joins compared those strings, the checkpoint
// wrote the map, and Observe evaluated the patterns (and the query's global
// constraints) itself. TestSeqMatcherMatchesReference holds SeqMatcher to it.

import (
	"fmt"
	"sort"
	"time"

	"saql/internal/event"
	"saql/internal/pcode"
	"saql/internal/wire"
)

type refPartial struct {
	events   []*event.Event
	bindings map[string]string // var -> entity key
	matched  int               // bitmask of matched pattern indices
	nOrdered int               // how many of the ordered patterns are matched
	lastTime time.Time
	created  time.Time
}

type refSeqMatcher struct {
	patterns []*Pattern
	global   *pcode.EventProg // nil: no global constraints
	vars     []string
	slots    [][2]int
	orderPos []int
	horizon  time.Duration
	maxPart  int

	partials []*refPartial

	Expired int64
	Dropped int64
}

func newRefSeqMatcher(patterns []*Pattern, global *pcode.EventProg, temporalOrder []int, cfg Config) (*refSeqMatcher, error) {
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
	m := &refSeqMatcher{
		patterns: patterns,
		global:   global,
		slots:    make([][2]int, len(patterns)),
		orderPos: orderPos,
		horizon:  cfg.Horizon,
		maxPart:  cfg.MaxPartials,
	}
	slot := func(name string) int {
		if name == "" {
			return -1
		}
		for i, v := range m.vars {
			if v == name {
				return i
			}
		}
		m.vars = append(m.vars, name)
		return len(m.vars) - 1
	}
	for i, p := range patterns {
		m.slots[i] = [2]int{slot(p.SubjVar), slot(p.ObjVar)}
	}
	return m, nil
}

// Observe feeds one event and returns any completed matches.
func (m *refSeqMatcher) Observe(ev *event.Event) []*Match {
	if m.global != nil && !m.global.Match(ev) {
		return nil
	}
	var hits []int
	for i, p := range m.patterns {
		if p.Matches(ev) {
			hits = append(hits, i)
		}
	}
	return m.ObserveHits(ev, hits)
}

func (m *refSeqMatcher) ObserveHits(ev *event.Event, hits []int) []*Match {
	if len(hits) == 0 {
		return nil
	}
	if len(m.patterns) == 1 {
		match := &Match{Events: []*event.Event{ev}, Entities: make([]*event.Entity, len(m.vars)), At: ev.Time}
		m.bind(match.Entities, 0, ev)
		return []*Match{match}
	}

	m.expire(ev.Time)

	var complete []*Match
	var created []*refPartial
	for _, hit := range hits {
		bit := 1 << uint(hit)
		for _, pt := range m.partials {
			if pt.matched&bit != 0 {
				continue
			}
			if !m.orderAllows(pt, hit) {
				continue
			}
			if !refBindingsCompatible(pt.bindings, m.patterns[hit], ev) {
				continue
			}
			np := m.extend(pt, hit, ev)
			if np.matched == (1<<uint(len(m.patterns)))-1 {
				complete = append(complete, m.finish(np))
			} else {
				created = append(created, np)
			}
		}
		if m.orderPos[hit] <= 0 {
			np := m.extend(&refPartial{
				bindings: map[string]string{},
				events:   make([]*event.Event, len(m.patterns)),
				created:  ev.Time,
			}, hit, ev)
			if np.matched == (1<<uint(len(m.patterns)))-1 {
				complete = append(complete, m.finish(np))
			} else {
				created = append(created, np)
			}
		}
	}

	for _, np := range created {
		if len(m.partials) >= m.maxPart {
			m.Dropped++
			continue
		}
		m.partials = append(m.partials, np)
	}
	return complete
}

func (m *refSeqMatcher) orderAllows(pt *refPartial, idx int) bool {
	pos := m.orderPos[idx]
	if pos == -1 {
		return true
	}
	return pos == pt.nOrdered
}

func (m *refSeqMatcher) extend(pt *refPartial, idx int, ev *event.Event) *refPartial {
	np := &refPartial{
		events:   make([]*event.Event, len(m.patterns)),
		bindings: make(map[string]string, len(pt.bindings)+2),
		matched:  pt.matched | 1<<uint(idx),
		nOrdered: pt.nOrdered,
		lastTime: ev.Time,
		created:  pt.created,
	}
	copy(np.events, pt.events)
	for k, v := range pt.bindings {
		np.bindings[k] = v
	}
	np.events[idx] = ev
	p := m.patterns[idx]
	if p.SubjVar != "" {
		np.bindings[p.SubjVar] = ev.Subject.Key()
	}
	if p.ObjVar != "" {
		np.bindings[p.ObjVar] = ev.Object.Key()
	}
	if m.orderPos[idx] != -1 {
		np.nOrdered++
	}
	return np
}

func (m *refSeqMatcher) finish(pt *refPartial) *Match {
	match := &Match{
		Events:   pt.events,
		Entities: make([]*event.Entity, len(m.vars)),
		At:       pt.lastTime,
	}
	for i, ev := range pt.events {
		if ev == nil {
			continue
		}
		m.bind(match.Entities, i, ev)
	}
	return match
}

// bind writes the entities ev binds as pattern i's match into their slots:
// later patterns overwrite earlier ones, the object shadows the subject.
func (m *refSeqMatcher) bind(dst []*event.Entity, i int, ev *event.Event) {
	if s := m.slots[i][0]; s >= 0 {
		dst[s] = &ev.Subject
	}
	if s := m.slots[i][1]; s >= 0 {
		dst[s] = &ev.Object
	}
}

func refBindingsCompatible(bindings map[string]string, p *Pattern, ev *event.Event) bool {
	if p.SubjVar != "" {
		if key, ok := bindings[p.SubjVar]; ok && key != ev.Subject.Key() {
			return false
		}
	}
	if p.ObjVar != "" {
		if key, ok := bindings[p.ObjVar]; ok && key != ev.Object.Key() {
			return false
		}
	}
	return true
}

func (m *refSeqMatcher) expire(now time.Time) {
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

func (m *refSeqMatcher) AppendState(b []byte) []byte {
	b = wire.AppendVarint(b, m.Expired)
	b = wire.AppendVarint(b, m.Dropped)
	b = wire.AppendUvarint(b, uint64(len(m.partials)))
	for _, pt := range m.partials {
		b = wire.AppendUvarint(b, uint64(pt.matched))
		b = wire.AppendVarint(b, int64(pt.nOrdered))
		b = wire.AppendTime(b, pt.lastTime)
		b = wire.AppendTime(b, pt.created)
		b = wire.AppendUvarint(b, uint64(len(pt.events)))
		for _, ev := range pt.events {
			if ev == nil {
				b = wire.AppendBool(b, false)
				continue
			}
			b = wire.AppendBool(b, true)
			b = wire.AppendEvent(b, ev)
		}
		keys := make([]string, 0, len(pt.bindings))
		for k := range pt.bindings {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = wire.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = wire.AppendString(b, k)
			b = wire.AppendString(b, pt.bindings[k])
		}
	}
	return b
}

func (m *refSeqMatcher) ReadState(r *wire.Reader) error {
	m.Expired += r.Varint()
	m.Dropped += r.Varint()
	n := r.Count(4)
	for i := 0; i < n && r.Err() == nil; i++ {
		pt := &refPartial{
			matched:  int(r.Uvarint()),
			nOrdered: int(r.Varint()),
			lastTime: r.Time(),
			created:  r.Time(),
		}
		slots := r.Count(1)
		if r.Err() != nil {
			return r.Err()
		}
		if slots != len(m.patterns) {
			return fmt.Errorf("matcher: snapshot partial has %d event slots, matcher has %d patterns", slots, len(m.patterns))
		}
		pt.events = make([]*event.Event, slots)
		for j := 0; j < slots && r.Err() == nil; j++ {
			if r.Bool() {
				pt.events[j] = r.ReadEvent()
			}
		}
		nBind := r.Count(2)
		pt.bindings = make(map[string]string, nBind)
		for j := 0; j < nBind && r.Err() == nil; j++ {
			k := r.String()
			pt.bindings[k] = r.String()
		}
		if r.Err() == nil {
			m.partials = append(m.partials, pt)
		}
	}
	return r.Err()
}
