// Package window implements the sliding-window state maintainer of the SAQL
// engine: event-time window assignment (tumbling and hopping windows),
// per-group aggregation within each window, watermark-driven window closing,
// and the per-group state-history rings that back the ss[k] syntax.
//
// A fold names its group by id, not by key: the caller resolves the key once
// per event in the Directory of its key class (directory.go) and every
// member's Manager finds the group in each containing window by indexing that
// window's id index. The index is a cache over the window's key-string table,
// which alone decides first touch, close order and the checkpoint bytes.
//
// Time between two window edges — a window's start or end — is a slice
// (Spec.SliceAt): every instant of a slice lies in the same windows, and no
// window ends strictly inside it. The engine logs a variant set's hits per
// slice of its members' specs and folds them into each member when the
// watermark reaches the slice's end, so a member assigns windows once per
// group and slice instead of once per hit.
package window

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"saql/internal/agg"
	"saql/internal/event"
	"saql/internal/value"
)

// ID identifies a window by its start instant (unix nanoseconds).
type ID int64

// Start returns the window's start time.
func (id ID) Start() time.Time { return time.Unix(0, int64(id)) }

// Spec describes a window: length and hop. A zero Hop means tumbling
// (hop == length).
type Spec struct {
	Length time.Duration
	Hop    time.Duration
}

// EffectiveHop returns the hop, defaulting to Length.
func (s Spec) EffectiveHop() time.Duration {
	if s.Hop > 0 {
		return s.Hop
	}
	return s.Length
}

// AssignAppend appends the IDs of all windows containing t to dst, in
// ascending start order, and returns the extended slice: exactly one ID for
// tumbling windows, ceil(Length/Hop) for hopping ones. It sits on the
// per-pattern-hit hot path: the tumbling case emits its single ID directly,
// and the hopping case walks starts upward from the earliest containing
// window, so neither path sorts or allocates beyond dst's growth.
//
//saql:hotpath
func (s Spec) AssignAppend(dst []ID, t time.Time) []ID {
	ts := t.UnixNano()
	hop := s.EffectiveHop().Nanoseconds()
	length := s.Length.Nanoseconds()
	// Latest window start <= ts, aligned to hop.
	latest := ts - mod(ts, hop)
	if hop >= length {
		// Tumbling (or gapped, hop > length): at most one window.
		if latest+length <= ts {
			return dst // ts falls in the gap between windows
		}
		return append(dst, ID(latest))
	}
	// Hopping: the containing starts are latest, latest-hop, ... > ts-length.
	n := (latest - (ts - length) + hop - 1) / hop
	for start := latest - (n-1)*hop; start <= latest; start += hop {
		dst = append(dst, ID(start))
	}
	return dst
}

// mod is a non-negative modulo (events before the unix epoch still align).
func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// End returns the exclusive end instant of window id.
func (s Spec) End(id ID) time.Time { return id.Start().Add(s.Length) }

// SliceAt returns the slice of the spec's window edges that holds t, in unix
// nanoseconds: start is the latest window start or end at or before t, end the
// earliest after it. Every instant of [start, end) lies in the same windows,
// tumbling, hopping or gapped; the slice of several specs is the intersection
// of their slices.
func (s Spec) SliceAt(t int64) (start, end int64) {
	hop, length := s.EffectiveHop().Nanoseconds(), s.Length.Nanoseconds()
	opened := t - mod(t, hop)        // window starts are the multiples of hop
	closed := t - mod(t-length, hop) // window ends lie length past them
	return max(opened, closed), min(opened, closed) + hop
}

// Slice returns the slice of specs holding t: the intersection of each
// spec's SliceAt, every instant of which lies in the same windows of every
// spec. It is the one definition of a variant set's slice, for the log that
// folds the set's hits and for the router that decides which replicas a hit
// must touch.
//
//saql:hotpath
func Slice(specs []Spec, t int64) (start, end int64) {
	start, end = math.MinInt64, math.MaxInt64
	for _, s := range specs {
		a, b := s.SliceAt(t)
		start, end = max(start, a), min(end, b)
	}
	return start, end
}

// FieldSpec declares one state field: its name and an aggregator factory
// invocation (name + literal params).
type FieldSpec struct {
	Name      string
	AggName   string
	AggParams []value.Value
}

// Group accumulates one group's aggregators within one window, along with
// representative entity/event bindings used later to evaluate alert and
// return expressions for the group (SAQL returns the attributes of the
// group's matched events, e.g. `return p, ss[0].avg_amount`). A Group is its
// manager's: it lives in one open window, is handed out in that window's
// Closed, and once the Closed goes back (Recycle) it is reset and becomes a
// group of a later window, aggregators and binding slices included.
type Group struct {
	Key   string
	Aggs  []agg.Aggregator
	Count int // events folded into this group this window
	// Entities and Events hold the bindings by slot (Manager.EntitySlot,
	// Manager.EventSlot); a nil slot is unbound, and the first writer wins.
	// Entities point into the events that bound them: retained, never
	// written.
	Entities []*event.Entity
	Events   []*event.Event
}

// Snapshot is the frozen state of one group for one closed window. A History
// holds its snapshots in its own ring slots, which a Push overwrites in place:
// a snapshot shares no slice with a Group or with another snapshot.
type Snapshot struct {
	WindowID ID
	// Fields holds the state fields' results in declaration order; it is
	// empty for a snapshot decoded from a blob that carried no fields.
	Fields []value.Value
	// Entities and Events are the group's slot-indexed bindings; both are
	// empty for a window the group sat out, and either may be shorter than
	// the manager's slot table.
	Entities []*event.Entity
	Events   []*event.Event
	Count    int
}

// openWindow is one in-flight window. groups, by key, is the window's group
// table; byID indexes the same groups by the directory id of their key
// (Manager.index names the directory), nil where the window has not yet seen
// the id since the index was last dropped. touched lists the table's groups
// in the order they entered it (Closed.Groups): firstTouch appends to it and
// ReadState rebuilds it from the table. A recycled window keeps all three's
// storage for the next window to open.
type openWindow struct {
	id      ID
	end     int64 // exclusive end, unix nanoseconds
	groups  map[string]*Group
	byID    []*Group
	touched []*Group
}

// Closed describes one closed window delivered by Advance or Flush. Its
// groups are still the manager's: hand the Closed back with Recycle once
// they have been read, and the next windows to open reuse them.
type Closed struct {
	ID  ID
	End time.Time
	// Groups lists each of the window's groups once, in no order a reader may
	// rely on: the order they entered the window, or after a restore the key
	// table's. A reader that needs an order sorts (the engine keeps its own
	// key order across closes).
	Groups []*Group
	w      *openWindow // the closed window, until it is recycled
}

// Manager assigns events to windows and closes windows as the watermark
// (max event time observed) passes their end.
type Manager struct {
	spec      Spec
	fields    []FieldSpec
	factories []agg.Factory // fields' aggregator factories, resolved once
	// emptyFields is every field's result over no input: the Fields of all
	// empty snapshots, never written after NewManager.
	emptyFields []value.Value
	// fieldOrder lists field indices by ascending name: the order snapshots
	// are encoded in.
	fieldOrder []int

	// Binding slot tables for Group.Entities and Group.Events.
	entities, events slotTable

	// open holds the in-flight windows in ascending ID order — which, all
	// windows sharing one length, is also ascending end order. There are
	// ⌈Length/Hop⌉ of them plus stragglers, so lookup is a short scan from
	// the newest end and closing pops a prefix.
	open []*openWindow
	// deadline is the earliest end among the open windows (math.MaxInt64
	// with none open): Advance below it closes nothing.
	deadline  int64
	watermark int64 // unix nanoseconds; meaningful once hasWM
	hasWM     bool

	// index and indexEpoch name the directory assignment the open windows'
	// byID slices were built against; a fold under any other drops them all
	// (see GroupFor).
	index      *Directory
	indexEpoch uint32
	// spareWins and spareGroups hold recycled windows (cleared key tables,
	// id indexes and group lists) and reset groups for the next windows to
	// open: at most ⌈Length/Hop⌉ windows, and at most spareLimit groups, the
	// most any one recycled window held.
	spareWins   []*openWindow
	spareGroups []*Group
	spareLimit  int

	// idScratch and groupScratch are reused across GroupFor calls so
	// per-event window assignment never allocates on the hot path (a
	// Manager is single-goroutine-confined).
	idScratch    []ID
	groupScratch []*Group
	slotScratch  []int    // the encoder's bound-slot list
	sortScratch  []*Group // the encoder's key-ordered copy of a window's groups
	// closed is what the last Advance or Flush returned, reused by the next:
	// a close's windows are read and recycled before the stream moves on.
	closed []Closed

	// Stats.
	LateEvents int64 // events older than an already-closed window
}

// NewManager creates a window manager for the given spec and state fields.
func NewManager(spec Spec, fields []FieldSpec) (*Manager, error) {
	if spec.Length <= 0 {
		return nil, fmt.Errorf("window: non-positive window length %v", spec.Length)
	}
	m := &Manager{spec: spec, fields: fields, deadline: math.MaxInt64}
	names := make([]string, len(fields))
	for i, f := range fields {
		// Resolve and try the aggregator factory eagerly so a bad query
		// fails at compile time, not at the first event.
		factory, err := agg.FactoryFor(f.AggName)
		if err != nil {
			return nil, err
		}
		a, err := factory(f.AggParams)
		if err != nil {
			return nil, err
		}
		m.factories = append(m.factories, factory)
		m.emptyFields = append(m.emptyFields, a.Result())
		names[i] = f.Name
	}
	m.fieldOrder = sortedOrder(names)
	return m, nil
}

// Empty returns a manager with m's spec, fields and binding slots and none of
// its state. The slot tables are copies: a restore may grow them (readEntities).
func (m *Manager) Empty() *Manager {
	return &Manager{
		spec: m.spec, fields: m.fields, factories: m.factories, emptyFields: m.emptyFields, fieldOrder: m.fieldOrder,
		entities: m.entities.clone(), events: m.events.clone(), deadline: math.MaxInt64,
	}
}

// sortedOrder returns the indices of names in ascending name order.
func sortedOrder(names []string) []int {
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return names[order[i]] < names[order[j]] })
	return order
}

// Spec returns the manager's window spec.
func (m *Manager) Spec() Spec { return m.spec }

// slotTable names one kind of binding slot: slot -> variable name, and for
// the encoder the slots by ascending name.
type slotTable struct {
	names []string
	order []int
}

// clone returns a copy of t that grows apart from it.
func (t slotTable) clone() slotTable {
	return slotTable{names: slices.Clone(t.names), order: slices.Clone(t.order)}
}

// slot returns name's slot, assigning the next free one at first sight.
func (t *slotTable) slot(name string) (slot int, added bool) {
	for i, n := range t.names {
		if n == name {
			return i, false
		}
	}
	t.names = append(t.names, name)
	t.order = sortedOrder(t.names)
	return len(t.names) - 1, true
}

// EntitySlot returns the binding slot of the entity variable name — its index
// in Group.Entities — assigning the next free slot at first sight. Slots are
// for the compiler and the state decoder, not the per-event path: a new slot
// widens every open group.
func (m *Manager) EntitySlot(name string) int {
	slot, added := m.entities.slot(name)
	if added {
		for _, w := range m.open {
			for _, g := range w.groups {
				g.Entities = append(g.Entities, nil)
			}
		}
	}
	return slot
}

// EventSlot is EntitySlot for event aliases and Group.Events.
func (m *Manager) EventSlot(name string) int {
	slot, added := m.events.slot(name)
	if added {
		for _, w := range m.open {
			for _, g := range w.groups {
				g.Events = append(g.Events, nil)
			}
		}
	}
	return slot
}

// window returns the open window id, opening it if needed.
//
//saql:hotpath
func (m *Manager) window(id ID) *openWindow {
	// Newest first: in-order streams hit the last window.
	i := len(m.open)
	for i > 0 && m.open[i-1].id > id {
		i--
	}
	if i > 0 && m.open[i-1].id == id {
		return m.open[i-1]
	}
	return m.openAt(i, id)
}

// openAt inserts a new window for id at position i of the ID-ordered open
// list, reusing a recycled window if there is one.
func (m *Manager) openAt(i int, id ID) *openWindow {
	var w *openWindow
	if n := len(m.spareWins); n > 0 {
		w = m.spareWins[n-1]
		m.spareWins[n-1] = nil
		m.spareWins = m.spareWins[:n-1]
	} else {
		w = &openWindow{groups: map[string]*Group{}}
	}
	w.id, w.end = id, int64(id)+m.spec.Length.Nanoseconds()
	m.open = append(m.open, nil)
	copy(m.open[i+1:], m.open[i:])
	m.open[i] = w
	if w.end < m.deadline {
		m.deadline = w.end
	}
	return w
}

// passed reports whether the watermark has reached end (unix nanoseconds): a
// window ending there has been closed, or will be by the next Advance.
func (m *Manager) passed(end int64) bool { return m.hasWM && end <= m.watermark }

// Watermark reports the watermark in unix nanoseconds, and whether there is
// one yet.
func (m *Manager) Watermark() (int64, bool) { return m.watermark, m.hasWM }

// Deadline reports the earliest end among the open windows (math.MaxInt64
// with none open): an Advance past it closes a window. It lies at or before
// the watermark only after a restore merged in windows that had already
// closed, which the next Advance beyond the watermark closes.
func (m *Manager) Deadline() int64 { return m.deadline }

// GroupFor returns (creating if needed) the group accumulator of key id of
// directory d in every window containing t: in each window one slice index,
// or, the first time the window meets the id, one probe of its key table. It
// returns nil if the event is late (belongs only to windows that already
// closed). The returned slice is reused by the next GroupFor call: iterate it
// immediately, do not retain it (the *Group elements themselves are stable).
//
//saql:hotpath
func (m *Manager) GroupFor(t time.Time, d *Directory, id int32) []*Group {
	if m.index != d || m.indexEpoch != d.epoch {
		m.reindex(d)
	}
	m.idScratch = m.spec.AssignAppend(m.idScratch[:0], t)
	out := m.groupScratch[:0]
	length := m.spec.Length.Nanoseconds()
	for _, wid := range m.idScratch {
		if m.passed(int64(wid) + length) {
			m.LateEvents++
			continue
		}
		w := m.window(wid)
		var g *Group
		if int(id) < len(w.byID) {
			g = w.byID[id]
		}
		if g == nil {
			g = m.firstTouch(w, d, id)
		}
		out = append(out, g)
	}
	m.groupScratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// firstTouch finds (creating if needed) the group of key id in w's key table
// and indexes it under id.
func (m *Manager) firstTouch(w *openWindow, d *Directory, id int32) *Group {
	key := d.keys[id]
	g, ok := w.groups[key]
	if !ok {
		g = m.newGroup(key)
		w.groups[key] = g
		w.touched = append(w.touched, g)
	}
	if n := int(id) + 1; n > len(w.byID) {
		if n > cap(w.byID) {
			grown := make([]*Group, n, max(n, 2*cap(w.byID), d.Len()))
			copy(grown, w.byID)
			w.byID = grown
		} else {
			w.byID = w.byID[:n] // past len the array is always cleared
		}
	}
	w.byID[id] = g
	return g
}

// reindex drops every open window's id index: the next folds arrive under
// d's current assignment and rebuild it from the key tables.
func (m *Manager) reindex(d *Directory) {
	for _, w := range m.open {
		clear(w.byID)
		w.byID = w.byID[:0]
	}
	m.index, m.indexEpoch = d, d.epoch
}

// OpenGroups reports how many groups the open windows hold, summed over the
// windows: the live state a key class's directory is bounded against.
func (m *Manager) OpenGroups() int {
	n := 0
	for _, w := range m.open {
		n += len(w.groups)
	}
	return n
}

// newGroup returns an empty accumulator for key: a recycled group if there is
// one, its binding slices widened to the slot tables, else a new one.
func (m *Manager) newGroup(key string) *Group {
	if n := len(m.spareGroups); n > 0 {
		g := m.spareGroups[n-1]
		m.spareGroups[n-1] = nil
		m.spareGroups = m.spareGroups[:n-1]
		g.Key = key
		g.Entities = widen(g.Entities, len(m.entities.names))
		g.Events = widen(g.Events, len(m.events.names))
		return g
	}
	g := &Group{
		Key:      key,
		Aggs:     make([]agg.Aggregator, len(m.fields)),
		Entities: make([]*event.Entity, len(m.entities.names)),
		Events:   make([]*event.Event, len(m.events.names)),
	}
	for i, f := range m.fields {
		a, err := m.factories[i](f.AggParams)
		if err != nil {
			panic(err) // tried in NewManager; unreachable
		}
		g.Aggs[i] = a
	}
	return g
}

// widen returns s, a recycled group's binding slice, at length n. Recycle
// cleared it, and past its length a binding slice is never written.
func widen[T any](s []*T, n int) []*T {
	if cap(s) < n {
		return make([]*T, n)
	}
	return s[:n]
}

// Touch opens the windows containing t without folding any group state.
// Sharded query replicas use it for events owned by another shard: the
// window must still exist (and later close) here so that window-close
// counts and empty-snapshot cadence stay identical on every shard, but no
// group accumulates the event.
//
//saql:hotpath
func (m *Manager) Touch(t time.Time) {
	m.idScratch = m.spec.AssignAppend(m.idScratch[:0], t)
	length := m.spec.Length.Nanoseconds()
	for _, id := range m.idScratch {
		// A window closed here is closed on the owning shard too, which
		// counts the event as late.
		if !m.passed(int64(id) + length) {
			m.window(id)
		}
	}
}

// Advance moves the watermark to t and returns all windows whose end has
// passed, in ascending end order. Below the earliest open window's end —
// nearly every call — it is two compares. The returned slice is reused by the
// next Advance or Flush: read and Recycle it before calling either again.
//
//saql:hotpath
func (m *Manager) Advance(t time.Time) []Closed {
	ts := t.UnixNano()
	if m.hasWM && ts <= m.watermark {
		return nil
	}
	m.watermark = ts
	m.hasWM = true
	if ts < m.deadline {
		return nil
	}
	n := 0
	for n < len(m.open) && m.open[n].end <= ts {
		n++
	}
	return m.closeFirst(n)
}

// Flush closes all remaining open windows (end of stream), in order. Like
// Advance's, its result lives until the next Advance or Flush.
func (m *Manager) Flush() []Closed { return m.closeFirst(len(m.open)) }

// closeFirst removes the n oldest open windows and returns them closed, in the
// manager's reused result slice.
func (m *Manager) closeFirst(n int) []Closed {
	if n == 0 {
		return nil
	}
	closed := slices.Grow(m.closed[:0], n)[:n]
	m.closed = closed
	for i, w := range m.open[:n] {
		closed[i] = Closed{ID: w.id, End: time.Unix(0, w.end), Groups: w.touched, w: w}
		clear(w.byID)
		w.byID = w.byID[:0]
	}
	rest := copy(m.open, m.open[n:])
	clear(m.open[rest:])
	m.open = m.open[:rest]
	m.deadline = math.MaxInt64
	if rest > 0 {
		m.deadline = m.open[0].end
	}
	return closed
}

// Recycle hands closed windows back once their groups have been read — into
// histories (History.PushGroup) and by whatever evaluated them — and nothing
// holds a group any more: each group is reset (count, aggregators, bindings)
// and, with its window's key table, id index and group list, reused by the
// windows that open next. Recycling a Closed empties it, so a second Recycle
// of the same slice does nothing; a Closed never recycled is left to the
// garbage collector.
func (m *Manager) Recycle(closed []Closed) {
	for i := range closed {
		c := &closed[i]
		w := c.w
		if w == nil {
			continue
		}
		m.spareLimit = max(m.spareLimit, len(c.Groups))
		for _, g := range c.Groups {
			g.Key, g.Count = "", 0
			for _, a := range g.Aggs {
				a.Reset()
			}
			clear(g.Entities)
			clear(g.Events)
			m.spareGroups = append(m.spareGroups, g)
		}
		clear(w.groups)
		clear(w.touched)
		w.touched = w.touched[:0]
		if len(m.spareWins) < m.maxOpen() {
			m.spareWins = append(m.spareWins, w)
		}
		*c = Closed{ID: c.ID, End: c.End}
	}
	if n := m.spareLimit; len(m.spareGroups) > n {
		clear(m.spareGroups[n:])
		m.spareGroups = m.spareGroups[:n]
	}
}

// maxOpen is how many windows the spec keeps open at once on an in-order
// stream: ⌈Length/Hop⌉, at least one.
func (m *Manager) maxOpen() int {
	hop := m.spec.EffectiveHop()
	return max(1, int((m.spec.Length+hop-1)/hop))
}

// OpenWindows reports how many windows are currently open.
func (m *Manager) OpenWindows() int { return len(m.open) }

// EmptySnapshot produces the snapshot a group has for a window with no
// matched events (avg/sum 0, empty set, ...): used to keep state history
// contiguous for groups that temporarily go quiet. Its Fields are shared
// with every other empty snapshot and must not be written; one EmptySnapshot
// per closed window serves all of that window's quiet groups, since Push
// copies it.
func (m *Manager) EmptySnapshot(id ID) *Snapshot {
	return &Snapshot{WindowID: id, Fields: m.emptyFields}
}

// History is a fixed-depth ring of a group's most recent snapshots.
// Index 0 is the most recently closed window. The ring owns its snapshots:
// a push overwrites the slot it evicts, reusing that slot's slices, so it
// runs in O(1) with zero allocations once every slot has grown to the
// group's width — one window close per group per window makes this a hot
// path at high group cardinality.
type History struct {
	m     *Manager // names the snapshots' fields and binding slots
	depth int
	buf   []Snapshot // ring storage, allocated on first push
	head  int        // index of the newest snapshot in buf
	n     int        // retained count (<= depth)
	total int        // total snapshots ever pushed (training counters)
}

// NewHistory creates a history ring of the manager's snapshots with the
// given depth (>= 1).
func (m *Manager) NewHistory(depth int) *History {
	if depth < 1 {
		depth = 1
	}
	return &History{m: m, depth: depth}
}

// Push adds a copy of s as the newest snapshot, evicting the oldest beyond
// depth. The history keeps none of s's slices.
//
//saql:hotpath
func (h *History) Push(s *Snapshot) {
	slot := h.next()
	slot.WindowID, slot.Count = s.WindowID, s.Count
	slot.Fields = append(slot.Fields[:0], s.Fields...)
	slot.Entities = append(slot.Entities[:0], s.Entities...)
	slot.Events = append(slot.Events[:0], s.Events...)
}

// PushGroup freezes g, a group of closed window id, as the newest snapshot:
// its aggregators' results and its bindings, copied into the evicted slot,
// so g may be recycled once it returns.
//
//saql:hotpath
func (h *History) PushGroup(id ID, g *Group) {
	slot := h.next()
	slot.WindowID, slot.Count = id, g.Count
	slot.Fields = slot.Fields[:0]
	for _, a := range g.Aggs {
		slot.Fields = append(slot.Fields, a.Result())
	}
	slot.Entities = append(slot.Entities[:0], g.Entities...)
	slot.Events = append(slot.Events[:0], g.Events...)
}

// next advances the ring and returns the slot of the newest snapshot, for the
// caller to overwrite.
func (h *History) next() *Snapshot {
	if h.buf == nil {
		h.buf = make([]Snapshot, h.depth)
		h.head = h.depth - 1 // first advance lands on index 0
	}
	h.head++
	if h.head == h.depth {
		h.head = 0
	}
	if h.n < h.depth {
		h.n++
	}
	h.total++
	return &h.buf[h.head]
}

// At returns the k-th most recent snapshot (0 = newest), or nil. The snapshot
// is the ring's: the push that evicts it overwrites it.
func (h *History) At(k int) *Snapshot {
	if k < 0 || k >= h.n {
		return nil
	}
	i := h.head - k
	if i < 0 {
		i += h.depth
	}
	return &h.buf[i]
}

// Len returns the number of retained snapshots.
func (h *History) Len() int { return h.n }

// Total returns how many snapshots have ever been pushed.
func (h *History) Total() int { return h.total }

// Depth returns the ring capacity.
func (h *History) Depth() int { return h.depth }

// Field returns state field i (declaration order) of the k-th most recent
// snapshot — what ss[k].f reads. History that does not exist yet is null, and
// so is a field a decoded snapshot does not carry.
//
//saql:hotpath
func (h *History) Field(k, i int) value.Value {
	s := h.At(k)
	if s == nil || i >= len(s.Fields) {
		return value.Null
	}
	return s.Fields[i]
}
