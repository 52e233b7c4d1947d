package scheduler

// Checkpoint support: state capture rides the scheduler lock, so it happens
// between events — the same consistency point every other control operation
// (add/remove/swap/pause) uses. On the sharded runtime a checkpoint control
// envelope reaches each shard's scheduler through the ingest queue's total
// order, so every shard captures at the identical stream position. Restore
// folds blobs into the queries of a never-started engine, before Start
// installs them on the shards.

import "fmt"

// CaptureStates encodes the runtime state of every registered query, keyed
// by query name, and reports how many events this scheduler had processed at
// the cut. It runs under the scheduler lock: the capture is a consistent cut
// between two events — each query settles its slice log as it encodes, so it
// is byte for byte what folding hit by hit would have left, and carries its
// events-offered counter brought up to the cut — and the event count is exact
// for that cut (the serial engine's stream offset).
func (s *Scheduler) CaptureStates() (map[string][]byte, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]byte, len(s.queries))
	for name, q := range s.queries {
		s.offeredLocked(q)
		blob, err := q.EncodeState()
		if err != nil {
			return nil, 0, fmt.Errorf("scheduler: capture %q: %w", name, err)
		}
		out[name] = blob
	}
	return out, s.stats.Events, nil
}
