package invariant

// Checkpoint support: a group's invariant state — the trained variables and
// the training-window counter — serialises into the wire format, so restored
// engines resume mid-training or fully trained exactly where the snapshot
// left them.

import (
	"slices"
	"sort"

	"saql/internal/wire"
)

// AppendState appends the invariant's runtime state: observed-window count
// and the variable values (sorted by name, so equal states encode
// identically). The spec (training depth, mode) is not encoded — it is part
// of the compiled query the state is restored into.
func (s *State) AppendState(b []byte) []byte {
	b = wire.AppendVarint(b, int64(s.windows))
	order := make([]int, len(s.vars))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return s.spec.Vars[order[i]] < s.spec.Vars[order[j]] })
	b = wire.AppendUvarint(b, uint64(len(order)))
	for _, i := range order {
		b = wire.AppendString(b, s.spec.Vars[i])
		b = wire.AppendValue(b, s.vars[i])
	}
	return b
}

// ReadState restores the invariant's runtime state from r, replacing the
// variables the constructor initialised. A variable the spec does not declare
// fails the read: the blob was taken under another invariant block.
func (s *State) ReadState(r *wire.Reader) error {
	s.windows = int(r.Varint())
	n := r.Count(2)
	for i := 0; i < n && r.Err() == nil; i++ {
		name := r.String()
		v := r.ReadValue()
		slot := slices.Index(s.spec.Vars, name)
		if slot < 0 {
			r.Fail("invariant variable %q is not declared by this query", name)
			break
		}
		s.vars[slot] = v
	}
	return r.Err()
}
