package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer was created; Parent is the index of the enclosing span (-1 for a
// root) and Rep ties the spans of one rep together.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so one code path serves both the
// end-to-end measurement and the traced pass.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex // the checkpoint and subscriber goroutines add spans too
	spans []span
	rep   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextRep starts a new rep id for the spans that follow.
func (t *tracer) nextRep() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rep++
	t.mu.Unlock()
}

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Rep: t.rep})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	Count  int   `json:"count"`
	Total  int64 `json:"total_ns"`
	Self   int64 `json:"self_ns"` // total minus the time covered by child spans
	MaxDur int64 `json:"max_ns"`
}

// layers folds the spans by name. A span's self time is its duration
// minus its direct children's durations. Children of one parent do not
// overlap, except a rep's checkpoint spans, which run beside its submit
// spans: read the rep root's self time on `durable` with that in mind.
func (t *tracer) layers() map[string]*layerTime {
	out := map[string]*layerTime{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += d
		lt.Self += d - child[i]
		lt.MaxDur = max(lt.MaxDur, d)
	}
	return out
}

// traceFile is what -trace 1 leaves in bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Layers   map[string]*layerTime `json:"layers"`
	Counters map[string]float64    `json:"counters"`
	Spans    []span                `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64, counters map[string]float64) error {
	tf := traceFile{Workload: workload, Seed: seed, Layers: t.layers(), Counters: counters, Spans: t.spans}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
