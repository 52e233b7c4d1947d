package engine

// Placement classifies how a query's runtime state may be distributed
// across parallel scheduler shards. The runtime's router establishes one
// total event order, resolves every hit — whose state, which group key,
// which shard — and hands each shard exactly the folds it owns, with touch
// ops and watermark stamps keeping window boundaries identical everywhere;
// placement decides which shard folds a hit into query state. The router is
// the only place ownership is decided: a replica folds exactly what it is
// handed (a stateful query's hit through its variant set's SliceLog, under the
// group id its shard resolved the router's key to; Ingest for a rule query's
// hit set) and asks no question of its own. The one job that is not the
// router's, re-splitting warm state over the shards at Start, passes each
// by-group replica its shard's keys (RestoreState's keep argument).
type Placement uint8

const (
	// PlacePinned marks queries whose semantics need the total event order
	// in one place: multievent rule queries (matches join events across
	// entities), outlier queries (clustering peers across all groups of a
	// window), stateful queries without a group-by (a single global group),
	// and any query using `return distinct` (global suppression table).
	// Pinned queries run on exactly one shard.
	PlacePinned Placement = iota
	// PlaceByGroup marks stateful queries whose per-group state is
	// independent across groups: every shard holds a replica, and each
	// group-by key is owned by exactly one shard. The router finds a hit's
	// owner by evaluating the key itself (HitKey, on its evaluation replica,
	// once for every query with the same key programs), whatever the group-by
	// expression, and hands the owner the key with the fold; a key that fails
	// to evaluate counts as the empty key, so its one owner reports the
	// failure (SliceLog.KeyFailed).
	PlaceByGroup
	// PlaceByEvent marks stateless single-pattern rule queries: each event
	// produces alerts independently, so events are split across shards by
	// subject entity.
	PlaceByEvent
)

// String names the placement.
func (p Placement) String() string {
	switch p {
	case PlacePinned:
		return "pinned"
	case PlaceByGroup:
		return "by-group"
	case PlaceByEvent:
		return "by-event"
	default:
		return "unknown"
	}
}

// Placement reports how this query may be distributed across shards.
func (q *Query) Placement() Placement {
	if q.distinct != nil {
		// `return distinct` keeps one global suppression table.
		return PlacePinned
	}
	if q.stateful {
		if q.hasCluster {
			// Clustering compares all groups of a window against each other.
			return PlacePinned
		}
		if len(q.groupBy) == 0 {
			return PlacePinned
		}
		return PlaceByGroup
	}
	if len(q.patterns) == 1 {
		// Single-pattern rule queries complete a match per event with no
		// cross-event partial state.
		return PlaceByEvent
	}
	return PlacePinned
}

// SetEventsOffered overwrites the events-offered counter. A shard replica
// under the routed runtime is offered only the events its shard owns, so the
// runtime derives the true count from router stream offsets and stamps it
// here before the replica's state is captured: a checkpoint then carries the
// counter the serial engine would.
func (q *Query) SetEventsOffered(n int64) { q.stats.Events = n }
