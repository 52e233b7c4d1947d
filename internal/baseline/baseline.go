// Package baseline implements the per-query-copy execution model of generic
// stream engines (Siddhi, Esper, Flink as the paper characterises them):
// "to support multiple concurrent queries that access different attributes
// of the data, these systems have to make multiple copies of the data for
// the queries". Every registered query receives its own materialised
// generic tuple of every event — the memory and CPU cost the
// master–dependent-query scheme eliminates. It is the comparator for
// experiment E3.
package baseline

import (
	"saql/internal/engine"
	"saql/internal/event"
	"saql/internal/scheduler"
	"saql/internal/value"
)

// Tuple is the generic attribute map a schema-agnostic engine materialises
// per query per event.
type Tuple map[string]value.Value

// Materialize converts an event into a generic tuple, copying every
// security-relevant attribute (this is the per-query data copy).
func Materialize(ev *event.Event) Tuple {
	t := make(Tuple, 16)
	t["id"] = value.Int(int64(ev.ID))
	t["time"] = value.Int(ev.Time.UnixNano())
	t["agentid"] = value.String(ev.AgentID)
	t["optype"] = value.String(ev.Op.String())
	t["amount"] = value.Float(ev.Amount)
	t["subj_exe_name"] = value.String(ev.Subject.ExeName)
	t["subj_pid"] = value.Int(int64(ev.Subject.PID))
	t["subj_user"] = value.String(ev.Subject.User)
	switch ev.Object.Type {
	case event.EntityProcess:
		t["obj_exe_name"] = value.String(ev.Object.ExeName)
		t["obj_pid"] = value.Int(int64(ev.Object.PID))
	case event.EntityFile:
		t["obj_path"] = value.String(ev.Object.Path)
	case event.EntityNetConn:
		t["obj_srcip"] = value.String(ev.Object.SrcIP)
		t["obj_sport"] = value.Int(int64(ev.Object.SrcPort))
		t["obj_dstip"] = value.String(ev.Object.DstIP)
		t["obj_dport"] = value.Int(int64(ev.Object.DstPort))
		t["obj_protocol"] = value.String(ev.Object.Protocol)
	}
	return t
}

// Engine executes queries the generic-CEP way: no sharing, one event copy
// and one tuple materialisation per query per event. Each query runs on an
// unshared scheduler of its own.
type Engine struct {
	scheds   []*scheduler.Scheduler
	reporter *engine.ErrorReporter

	// Stats.
	Events      int64
	TupleCopies int64
	Alerts      int64
}

// New creates a baseline engine. reporter may be nil.
func New(reporter *engine.ErrorReporter) *Engine {
	return &Engine{reporter: reporter}
}

// Add registers a compiled query on a scheduler of its own.
func (e *Engine) Add(q *engine.Query) {
	s := scheduler.New(e.reporter, false)
	_ = s.Add(q) // the scheduler's only query: no name to clash with
	e.scheds = append(e.scheds, s)
}

// QueryCount reports the number of registered queries.
func (e *Engine) QueryCount() int { return len(e.scheds) }

// Process delivers ev to every query, materialising a private copy for each
// (struct copy + generic tuple), exactly as a per-query-stream engine would.
func (e *Engine) Process(ev *event.Event) []*engine.Alert {
	e.Events++
	var alerts []*engine.Alert
	for _, s := range e.scheds {
		// The per-query data copy: a full struct copy plus the generic
		// attribute-map materialisation that schema-agnostic engines
		// perform so each query can bind its own attribute view.
		copyEv := *ev
		tuple := Materialize(&copyEv)
		_ = tuple // retained for the duration of query evaluation
		e.TupleCopies++
		alerts = append(alerts, s.Process(&copyEv)...)
	}
	e.Alerts += int64(len(alerts))
	return alerts
}

// Flush closes all open windows on every query.
func (e *Engine) Flush() []*engine.Alert {
	var alerts []*engine.Alert
	for _, s := range e.scheds {
		alerts = append(alerts, s.Flush()...)
	}
	e.Alerts += int64(len(alerts))
	return alerts
}
