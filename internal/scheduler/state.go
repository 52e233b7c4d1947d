package scheduler

// Checkpoint support: state capture and restore ride the scheduler lock, so
// they happen between events — the same consistency point every other
// control operation (add/remove/swap/pause) uses. On the sharded runtime a
// checkpoint control envelope reaches each shard's scheduler through the
// ingest queue's total order, so every shard captures at the identical
// stream position.

import "fmt"

// CaptureStates encodes the runtime state of every registered query, keyed
// by query name, and reports how many events this scheduler had processed at
// the cut. It runs under the scheduler lock: the capture is a consistent cut
// between two events — each query settles its slice log as it encodes, so it
// is byte for byte what folding hit by hit would have left — and the event
// count is exact for that cut (the serial engine's stream offset).
func (s *Scheduler) CaptureStates() (map[string][]byte, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]byte, len(s.queries))
	for name, q := range s.queries {
		blob, err := q.EncodeState()
		if err != nil {
			return nil, 0, fmt.Errorf("scheduler: capture %q: %w", name, err)
		}
		out[name] = blob
	}
	return out, s.stats.Events, nil
}

// RestoreQueryState folds one state blob into the registered query name.
// disjoint marks this scheduler as the single owner of the blob's global
// state (counters, distinct table, partial matches); group-keyed state is
// filtered by the query replica's own shard ownership. Unknown names report
// an error: restore plans are built from the same registry snapshot the
// blobs were captured from.
func (s *Scheduler) RestoreQueryState(name string, blob []byte, disjoint bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queries[name]
	if !ok {
		return fmt.Errorf("scheduler: restore: unknown query %q", name)
	}
	return q.RestoreState(blob, disjoint)
}
