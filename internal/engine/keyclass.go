package engine

// Key classes: the stateful queries of one scheduler whose group-by items
// compile to the same programs (SameKeyPrograms) yield byte-equal keys for
// every hit, so they share one evaluation of a hit's key per event — the
// evaluating scheduler's resolve step — and one directory giving those keys
// dense group ids. A KeyClass is the directory side as one scheduler keeps
// it: every fold, a shard's or serial Process's, is handed keys the resolve
// step already evaluated and hashed, and resolves each once per event per
// pattern (Routed). The class's slice logs record the hit under its id, and
// every member folds by id when a log seals (slicelog.go).

import (
	"saql/internal/event"
	"saql/internal/window"
)

// minDirectoryLimit is the directory size below which a key class never
// checks whether its keys are still live.
const minDirectoryLimit = 256

// KeyClass is one key class's per-scheduler state. It is confined to its
// scheduler's lock, like the queries it serves.
type KeyClass struct {
	dir window.Directory
	// memo holds, per pattern, the key of the event the class last saw.
	memo []classKey
	seq  uint64 // the event the class last saw
	// logs are the slice logs of the class's variant sets: they hold ids of
	// the directory's current assignment, and their members' open groups are
	// the live state the directory is bounded against. rep re-derives a failed
	// key's error for all of them (Failed).
	logs  []*SliceLog
	rep   *Query
	limit int // directory size at which boundDirectory next runs

	// A seal's bucketing scratch (bucket): run index + 1 by group id, the
	// runs, and the hits' indexes and event times in run order.
	runOf []int32
	runs  []hitRun
	order []int32
	times []int64
	// A seal's columns (SliceLog.fold): one chunk of its hits in run order
	// and its program table's values on them.
	cols columns

	// KeyEvals counts the failed keys' re-derivations (Failed) and Probes the
	// directory probes: both exact, and at most one per event per pattern.
	KeyEvals, Probes int64
}

// classKey is one pattern's key for the event numbered seq: its id, or the
// error it failed with.
type classKey struct {
	seq uint64
	id  int32
	err error
}

// NewKeyClass returns an empty key class.
func NewKeyClass() *KeyClass { return &KeyClass{limit: minDirectoryLimit} }

// SetLogs names the slice logs folding through the class: at least one, with
// at least one member.
func (c *KeyClass) SetLogs(logs []*SliceLog) {
	c.logs, c.rep = logs, logs[0].members[0]
}

// at returns pattern hi's memo entry, starting the event numbered seq if it
// is new to the class: the one point between events where the directory may
// be reset, because no id of the event has been handed out yet.
//
//saql:hotpath
func (c *KeyClass) at(seq uint64, hi int) *classKey {
	if seq != c.seq {
		c.seq = seq
		if c.dir.Len() >= c.limit {
			c.boundDirectory()
		}
	}
	if hi >= len(c.memo) {
		c.memo = append(c.memo, make([]classKey, hi+1-len(c.memo))...)
	}
	return &c.memo[hi]
}

// Routed returns the group id of key — evaluated and hashed by the resolve
// step — as the key of pattern hi for the event numbered seq, probing the
// directory only the first time the event asks.
//
//saql:hotpath
func (c *KeyClass) Routed(seq uint64, hi int, hash uint32, key string) int32 {
	k := c.at(seq, hi)
	if k.seq != seq {
		*k = classKey{seq: seq, id: c.dir.Resolve(hash, key)}
		c.Probes++
	}
	return k.id
}

// Failed returns the error pattern hi's key fails with on ev, the event
// numbered seq, which the resolve step found not to evaluate: re-derived (a pure
// function of the event: it fails the same way) once per event per pattern,
// for the owner of the empty key to report.
func (c *KeyClass) Failed(seq uint64, hi int, ev *event.Event) error {
	k := c.at(seq, hi)
	if k.seq != seq {
		_, err := c.rep.HitKey(hi, ev)
		c.KeyEvals++
		*k = classKey{seq: seq, id: -1, err: err}
	}
	return k.err
}

// boundDirectory keeps the directory within a constant factor of the live
// state: when it holds more keys than the members' open windows hold groups,
// some keys are certainly dead, and it starts over — the members' id indexes
// rebuild from their key tables as hits arrive. The class's logs fold first:
// they hold ids of the assignment a reset ends, and their hits are live
// groups. The next check comes once the directory reaches twice the live
// groups, so the checks and resets are amortised over at least as many new
// keys as there are live groups.
func (c *KeyClass) boundDirectory() {
	live := 0
	for _, l := range c.logs {
		l.fold()
		for _, q := range l.members {
			live += q.winMgr.OpenGroups()
		}
	}
	if c.dir.Len() > live {
		c.dir.Reset()
	}
	c.limit = max(minDirectoryLimit, 2*live)
}
