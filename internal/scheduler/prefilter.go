package scheduler

import (
	"saql/internal/engine"
	"saql/internal/event"
)

// Prefilter is the decode-time prefilter table of a set of registered
// queries: from an event's agentid and operation alone it tells the lines no
// query can match, so a decoder scans and checks them but never builds their
// events. Per query it keeps the agentid its global constraints pin it to
// (engine.Query.AgentEq) and the union of its patterns' operation sets; a
// query's pattern hits an event only if the event's operation is in the
// pattern's set and, for a pinned query, its agentid folds to the pin. So
// Admit is true for every event any of the queries can hit. A Prefilter is
// immutable and safe for concurrent use.
type Prefilter struct {
	all    bool              // admit every line
	free   uint32            // the operations of the queries pinned to no agentid
	pinned map[string]uint32 // folded agentid -> the operations of the queries pinned to it
}

// admitAll is the table that admits every line.
var admitAll = &Prefilter{all: true}

// AdmitAll returns the table that admits every line: for an engine whose
// journal must see every event, or a source nothing may be skipped from.
func AdmitAll() *Prefilter { return admitAll }

// NewPrefilter builds the table of the registered queries qs. A paused query
// stays in it: pausing must not change what a source decodes, and admitting
// more is always sound.
func NewPrefilter(qs []*engine.Query) *Prefilter {
	t := &Prefilter{pinned: map[string]uint32{}}
	for _, q := range qs {
		ops := opSet(q)
		if agent, ok := q.AgentEq(); ok {
			t.pinned[agent] |= ops
		} else {
			t.free |= ops
		}
	}
	return t
}

// opSet is the union of q's patterns' operation sets: every operation one of
// its patterns can hit.
func opSet(q *engine.Query) uint32 {
	var ops uint32
	for _, p := range q.Patterns() {
		ops |= p.Ops()
	}
	return ops
}

// Admit reports whether some query of the table could match an event of
// agentid agent and operation op. An agentid that is not ASCII or is longer
// than the fold buffer is admitted, however the table is pinned.
//
//saql:hotpath
func (t *Prefilter) Admit(agent []byte, op event.Op) bool {
	bit := uint32(1) << op
	if t.all || t.free&bit != 0 {
		return true
	}
	if len(t.pinned) == 0 {
		return false
	}
	var buf [agentFoldLen]byte
	n, ascii := foldAgent(&buf, agent)
	return !ascii || t.pinned[string(buf[:n])]&bit != 0
}
