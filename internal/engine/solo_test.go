package engine

// A query used on its own — outside any scheduler — folds, in this package's
// tests, through a driver over the exported calls a scheduler's fold makes:
// MatchBatch for its hits; Ingest, the rule fold; and for a stateful query a
// variant set of one with a key class of its own — HitKey once per event per
// pattern, KeyClass.Routed or KeyClass.Failed, SliceLog.Add or KeyFailed, and
// SliceLog.Advance to the event's time. It counts the events offered itself,
// as a scheduler derives them.

import (
	"math/bits"
	"sync"

	"saql/internal/event"
	"saql/internal/window"
)

// solo is one stateful query's driver state: its log, and the number of the
// event it last folded (the key class memo's stamp).
type solo struct {
	log *SliceLog
	seq uint64
}

var (
	solosMu sync.Mutex
	solos   = map[*Query]*solo{}
)

// soloOf returns q's driver, making its variant set of one at the first call.
func soloOf(q *Query) *solo {
	solosMu.Lock()
	defer solosMu.Unlock()
	s := solos[q]
	if s == nil {
		kc := NewKeyClass()
		s = &solo{log: NewSliceLog([]*Query{q}, kc, func(error) {})}
		kc.SetLogs([]*SliceLog{s.log})
		solos[q] = s
	}
	return s
}

// Hits returns the indices of the query's patterns that ev satisfies,
// including the global constraints, in ascending order: MatchBatch on a batch
// of one.
func (q *Query) Hits(ev *event.Event) []int {
	var mask [1]uint64
	var ok [1]bool
	q.MatchBatch([]*event.Event{ev}, nil, mask[:], ok[:])
	var hits []int
	for m := mask[0]; m != 0; m &= m - 1 {
		hits = append(hits, bits.TrailingZeros64(m))
	}
	return hits
}

// Process feeds one event through the query on its own: matching, then
// soloIngest.
func (q *Query) Process(ev *event.Event, report func(error)) []*Alert {
	return q.soloIngest(ev, q.Hits(ev), report)
}

// soloIngest folds an event whose hits were already computed into the query
// on its own. report (nil: none) receives the evaluation errors; an argument
// error is reported when its slice seals, to the report of the soloIngest or
// soloFlush call that seals it, or of the last soloIngest when a state reader
// does.
func (q *Query) soloIngest(ev *event.Event, hits []int, report func(error)) []*Alert {
	if report == nil {
		report = func(error) {}
	}
	if !q.stateful {
		return q.Ingest(ev, hits, report) // counts the event
	}
	s := soloOf(q)
	s.log.report = report
	s.seq++
	return offer(s.log, s.seq, ev, hits)
}

// soloFlush is Flush on a query used on its own: the errors of its last
// slice's fold go to report too.
func (q *Query) soloFlush(report func(error)) []*Alert {
	if q.stateful && report != nil {
		soloOf(q).log.report = report
	}
	return q.Flush(report)
}

// offer is the serial fold of one event, numbered seq, that hit the set's
// patterns hits: each hit's key evaluated and resolved to its group id, or its
// failure reported; the event counted for every active member; the event's
// time observed, sealing the log when it reaches the end of the slice.
func offer(l *SliceLog, seq uint64, ev *event.Event, hits []int) []*Alert {
	for _, hi := range hits {
		if key, err := l.kc.rep.HitKey(hi, ev); err != nil {
			l.KeyFailed(ev.Time, l.kc.Failed(seq, hi, ev))
		} else {
			l.Add(ev, hi, l.kc.Routed(seq, hi, window.HashKey(key), key))
		}
	}
	for _, q := range l.active {
		q.stats.Events++
	}
	return l.Advance(ev.Time)
}
