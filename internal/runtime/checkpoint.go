package runtime

// Checkpoint/restore coordination. A checkpoint is a control envelope riding
// the ingest queue: it reaches every shard in the same total order as
// events, pause, and hot-swap, so the states the shards encode are one
// consistent cut of the stream — every event before the barrier fully
// folded, nothing after it touched — and the offset the router stamps on the
// barrier indexes exactly that cut in the journal. Restore needs no control
// op: the blobs are folded into a never-started engine's queries, and
// installing a warm query (buildReplicas) re-splits its state through every
// replica's ownership filter, across whatever shard count the restored
// engine runs with.

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
	c := &control{kind: ctlCheckpoint}
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
