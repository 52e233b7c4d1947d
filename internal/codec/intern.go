package codec

import (
	"sync"
	"sync/atomic"

	"saql/internal/event"
	"saql/internal/symtab"
)

// InternStats counts one consumer's intern-table activity. Decoders write
// and any goroutine may read concurrently (engine stats snapshots), hence
// the atomics. Hits and Misses count the lookups of the decoders that share
// this sink; Entries counts the distinct values cached by their tables.
type InternStats struct {
	Hits    atomic.Int64
	Misses  atomic.Int64
	Entries atomic.Int64
}

// InternTable is one intern table several decoders share (Options.Table):
// the decode workers of one stream. A value is a miss once per table,
// whichever decoder looks it up first, so the counters of decoders sharing
// one equal those of a single decoder with a table of its own over the same
// lines, however the lines are split among them, while the table holds
// fewer than internMaxEntries values.
type InternTable struct {
	mu sync.Mutex
	m  map[string]internEntry // written under mu until it holds internMaxEntries values, never after
}

// internTable deduplicates the low-cardinality attribute strings a stream
// repeats on nearly every line — executable names, agent/host IDs, user
// names, IP addresses, transport protocols — so the millions of retained
// copies in window state, match partials, and checkpoint snapshots share one
// backing allocation per distinct value instead of one per event. Each
// decoder holds one, single-goroutine and unlocked.
//
// It is a cache in front of an InternTable: the one the decoder was given
// (Options.Table), or one of its own, made at its first miss. A repeat
// resolves from the cache, only a value the decoder has not seen yet takes
// the table's lock, and only a value the table has not seen yet is a miss.
// Once the table is full it never changes again, so a decoder that finds it
// full reads it in place of its cache, without the lock.
//
// Alongside the canonical copy, each entry caches the value's symbol ID from
// the process-global dictionary (internal/symtab), so decoded events carry
// small-int symbols for their hot attributes and compiled equality
// predicates compare one uint32 instead of case-folding strings. The global
// dictionary is consulted once per distinct string per table; every repeat
// resolves from the tables.
//
// High-cardinality attributes (file paths, command lines) are deliberately
// not interned: they rarely repeat, and caching them would only grow the
// table. Two safety valves bound the table even on adversarial input: values
// longer than internMaxLen bypass it, and once internMaxEntries distinct
// values have been cached, new ones pass through uncached (symbol-less)
// while existing entries keep deduplicating.
type internTable struct {
	m      map[string]internEntry // this decoder's cache of shared
	shared *InternTable           // nil until the first miss of a decoder given none
	full   bool                   // shared is full and m is shared's map
	stats  *InternStats           // optional per-consumer counters (nil: not counted)

	// Lookups since the last publish. The consumer's counters are atomics
	// other goroutines read, so they are bumped once per decoded line, not
	// once per attribute.
	hits, misses int64
}

// internEntry is one cached value: the canonical string plus its global
// symbol ID (0 when the dictionary rejected or overflowed).
type internEntry struct {
	s   string
	sym uint32
}

const (
	internMaxEntries = 1 << 12
	internMaxLen     = 128
)

// val returns the canonical copy of s and its symbol ID, caching both on
// first sight.
//
//saql:hotpath
func (t *internTable) val(s string) (string, uint32) {
	if s == "" || len(s) > internMaxLen {
		return s, 0
	}
	if e, ok := t.m[s]; ok {
		t.hits++
		return e.s, e.sym
	}
	return t.add(s)
}

// bytes is val for a value still sitting in the decoder's input: a repeat
// resolves to the canonical string without b ever becoming one (the map
// lookup converts in place), so only first-sight and over-long values are
// copied.
//
//saql:hotpath
func (t *internTable) bytes(b []byte) (string, uint32) {
	if len(b) == 0 {
		return "", 0
	}
	if len(b) > internMaxLen {
		return string(b), 0
	}
	if e, ok := t.m[string(b)]; ok {
		t.hits++
		return e.s, e.sym
	}
	return t.add(string(b))
}

// add resolves a value this decoder has not cached through the table: a
// value the table holds is a hit and is cached, one it does not is a miss and
// is added (unless the table is full).
func (t *internTable) add(s string) (string, uint32) {
	if t.shared == nil {
		t.shared = new(InternTable)
	}
	if t.full {
		t.misses++ // m is the whole table, and s is not in it
		return s, 0
	}
	sh := t.shared
	sh.mu.Lock()
	e, ok := sh.m[s]
	switch {
	case ok:
		t.hits++
	case len(sh.m) >= internMaxEntries:
		// Nothing writes a full table: read it from now on, unlocked.
		t.m, t.full = sh.m, true
		sh.mu.Unlock()
		t.misses++
		return s, 0
	default:
		t.misses++
		if sh.m == nil {
			sh.m = make(map[string]internEntry)
		}
		e = internEntry{s: s, sym: symtab.Intern(s)}
		sh.m[s] = e
		if t.stats != nil {
			t.stats.Entries.Add(1)
		}
	}
	sh.mu.Unlock()
	if t.m == nil {
		t.m = make(map[string]internEntry)
	}
	t.m[e.s] = e
	return e.s, e.sym
}

// publish moves the lookups counted since the last call into the consumer's
// counters.
//
//saql:hotpath
func (t *internTable) publish() {
	// Misses all but vanish once a stream's values have been seen, and a
	// locked add of zero costs as much as any other: touch what moved.
	if s := t.stats; s != nil {
		if t.hits != 0 {
			s.Hits.Add(t.hits)
		}
		if t.misses != 0 {
			s.Misses.Add(t.misses)
		}
	}
	t.hits, t.misses = 0, 0
}

// str returns the canonical copy of s, caching it on first sight.
//
//saql:hotpath
func (t *internTable) str(s string) string {
	v, _ := t.val(s)
	return v
}

// entity interns an entity's hot attributes in place, stamping their symbol
// IDs.
//
//saql:hotpath
func (t *internTable) entity(e *event.Entity) {
	e.ExeName, e.ExeSym = t.val(e.ExeName)
	e.User, e.UserSym = t.val(e.User)
	e.SrcIP, e.SrcIPSym = t.val(e.SrcIP)
	e.DstIP, e.DstIPSym = t.val(e.DstIP)
	e.Protocol, e.ProtoSym = t.val(e.Protocol)
}

// intern canonicalizes one decoded event's hot strings in place.
//
//saql:hotpath
func (t *internTable) intern(ev *event.Event) {
	ev.AgentID, ev.AgentSym = t.val(ev.AgentID)
	t.entity(&ev.Subject)
	t.entity(&ev.Object)
	t.publish()
}
