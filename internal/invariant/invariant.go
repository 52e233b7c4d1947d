// Package invariant implements the invariant-based anomaly model of SAQL:
// per-group invariant variables initialised once, updated over a training
// phase of N closed windows, and then used to detect violations. Offline
// mode freezes the invariant after training (the paper's Query 3); online
// mode keeps folding new windows in after detection starts.
package invariant

import (
	"slices"

	"saql/internal/value"
)

// Mode selects training behaviour after the training phase ends.
type Mode uint8

// Invariant training modes.
const (
	// Offline freezes the invariant after the training windows.
	Offline Mode = iota
	// Online keeps updating the invariant after detection begins.
	Online
)

// String names the mode the way SAQL spells it.
func (m Mode) String() string {
	if m == Online {
		return "online"
	}
	return "offline"
}

// Spec configures an invariant model.
type Spec struct {
	TrainWindows int  // number of training windows per group
	Mode         Mode // offline or online
	// Vars names the invariant variables in declaration order. A variable is
	// addressed by its index here everywhere but in the checkpoint, which
	// keeps names.
	Vars []string
}

// State is one group's invariant state.
type State struct {
	spec    Spec
	vars    []value.Value // by declaration index
	windows int           // closed windows observed so far
}

// NewState creates a group invariant with initial variable values (the
// evaluated `a := empty_set` statements), one per spec.Vars.
func NewState(spec Spec, inits []value.Value) *State {
	return &State{spec: spec, vars: slices.Clone(inits)}
}

// Vars exposes the invariant variables, by declaration index, for expression
// evaluation. The returned slice must not be mutated by callers; updates go
// through Observe.
func (s *State) Vars() []value.Value { return s.vars }

// Training reports whether the group is still within its training phase:
// updates are applied and detection (alerting) is suppressed.
func (s *State) Training() bool { return s.windows < s.spec.TrainWindows }

// ShouldUpdate reports whether update statements should run for the closing
// window: always during training; afterwards only in online mode.
func (s *State) ShouldUpdate() bool {
	return s.Training() || s.spec.Mode == Online
}

// Observe records one closed window. newVars, if non-nil, replaces the
// variable values (the result of evaluating the update statements over a copy
// of Vars) and is owned by the state from here on; pass nil when
// ShouldUpdate() was false. It returns true if detection is active for this
// window (i.e. training had already completed before this window).
func (s *State) Observe(newVars []value.Value) (detecting bool) {
	detecting = !s.Training()
	if newVars != nil {
		s.vars = newVars
	}
	s.windows++
	return detecting
}

// WindowsSeen reports how many windows the group has observed.
func (s *State) WindowsSeen() int { return s.windows }
