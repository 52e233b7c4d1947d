package runtime

import (
	"errors"
	"maps"
	"slices"

	"saql/internal/engine"
)

// Checkpoint/restore coordination. A checkpoint is a control envelope riding
// the ingest queue: it reaches every shard in the same total order as
// events, pause, and hot-swap, so the states the shards encode are one
// consistent cut of the stream — every event before the barrier fully
// folded, nothing after it touched — and the offset the router stamps on the
// barrier indexes exactly that cut in the journal. Restore needs no control
// op: the blobs are folded into a never-started engine's queries, and
// installing a warm query (buildReplicas) re-splits its state through every
// replica's ownership filter, across whatever shard count the restored
// engine runs with. A stats read is the same capture, restricted to the
// queries it names and folded the way a restore folds it (QueryStats).

// CheckpointState is one consistent cut of the runtime's query state.
type CheckpointState struct {
	// Offset is the stream position of the barrier: the number of journaled
	// events fully processed by every shard at the cut.
	Offset int64
	// States holds each query's encoded state blobs, one per shard that
	// held a replica, in shard order.
	States map[string][][]byte
}

// Checkpoint captures a consistent snapshot of every registered query's
// state at a control-queue barrier. It serialises against other control
// operations (the registry cannot change between the barrier and the
// caller's use of the result).
func (r *Runtime) Checkpoint() (*CheckpointState, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &control{kind: ctlCheckpoint, names: slices.Collect(maps.Keys(r.queries))}
	results, err := r.control(c)
	if err != nil {
		return nil, err
	}
	out := &CheckpointState{Offset: c.offset, States: map[string][][]byte{}}
	for _, res := range results { // already sorted by shard
		if res.err != nil {
			return nil, res.err
		}
		for name, blob := range res.states {
			out.States[name] = append(out.States[name], blob)
		}
	}
	return out, nil
}

// QueryStats reads the named queries' counters off one capture (a checkpoint
// barrier restricted to them): each query's blobs fold, in shard order, into
// a fresh replica by RestoreState, as a restore folds them, and the counters
// and StateBytes are that replica's — serial's at every shard count. Names
// not registered, and a pinned query another cluster worker owns, are left
// out. After Close the capture is applied to the quiescent shards directly.
func (r *Runtime) QueryStats(names ...string) (map[string]engine.QueryStats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &control{kind: ctlCheckpoint, names: names}
	results, err := r.control(c)
	if errors.Is(err, ErrClosed) {
		// Once the drain finishes, the routing goroutine and the workers are
		// gone and the capture runs here. Close takes r.mu, so the wait runs
		// without it; the capture takes it again, because encoding a replica
		// settles its slice log and concurrent readers must not share that.
		r.mu.Unlock()
		<-r.done
		r.mu.Lock()
		c.ack = make(chan ctlResult, len(r.shards))
		r.applyEval(c)
		for _, s := range r.shards {
			s.apply(c, r.cfg.Fan)
			results = append(results, <-c.ack)
		}
	} else if err != nil {
		return nil, err
	}
	merged := map[string]*engine.Query{}
	for _, res := range results {
		if res.err != nil {
			return nil, res.err
		}
		for name, blob := range res.states {
			if merged[name] == nil {
				merged[name] = r.queries[name].eval.Replica()
			}
			if err := merged[name].RestoreState(blob, nil, true); err != nil {
				return nil, err
			}
		}
	}
	out := make(map[string]engine.QueryStats, len(merged))
	for name, q := range merged {
		st := q.Stats()
		st.StateBytes = q.StateBytes()
		out[name] = st
	}
	return out, nil
}
