package invariant

import (
	"testing"

	"saql/internal/value"
)

func TestOfflineLifecycle(t *testing.T) {
	s := NewState(Spec{TrainWindows: 3, Mode: Offline, Vars: []string{"a"}}, []value.Value{value.EmptySet()})

	// Training phase: 3 windows, updates applied, detection off.
	for i := 0; i < 3; i++ {
		if !s.Training() {
			t.Fatalf("window %d: should be training", i)
		}
		if !s.ShouldUpdate() {
			t.Fatalf("window %d: should update during training", i)
		}
		set, _ := s.Vars()[0].Union(value.SetOf("p" + string(rune('0'+i))))
		if detecting := s.Observe([]value.Value{set}); detecting {
			t.Fatalf("window %d: detection during training", i)
		}
	}

	// After training: frozen, detecting.
	if s.Training() {
		t.Error("training should be complete")
	}
	if s.ShouldUpdate() {
		t.Error("offline invariant should not update after training")
	}
	if !s.Observe(nil) {
		t.Error("detection should be active")
	}
	if s.Vars()[0].SetLen() != 3 {
		t.Errorf("invariant = %v, want 3 members", s.Vars()[0])
	}
	if s.WindowsSeen() != 4 {
		t.Errorf("windows seen = %d", s.WindowsSeen())
	}
}

func TestOnlineKeepsUpdating(t *testing.T) {
	s := NewState(Spec{TrainWindows: 1, Mode: Online, Vars: []string{"a"}}, []value.Value{value.EmptySet()})
	s.Observe([]value.Value{value.SetOf("x")})
	if !s.ShouldUpdate() {
		t.Error("online invariant should keep updating after training")
	}
	if !s.Observe([]value.Value{value.SetOf("x", "y")}) {
		t.Error("detection should be active after training window")
	}
	if s.Vars()[0].SetLen() != 2 {
		t.Errorf("invariant = %v", s.Vars()[0])
	}
}

func TestModeString(t *testing.T) {
	if Offline.String() != "offline" || Online.String() != "online" {
		t.Error("mode names wrong")
	}
}

func TestInitsAreCopied(t *testing.T) {
	inits := []value.Value{value.SetOf("seed")}
	s := NewState(Spec{TrainWindows: 1, Mode: Offline, Vars: []string{"a"}}, inits)
	// Mutating the caller's slice must not affect the state.
	inits[0] = value.EmptySet()
	if s.Vars()[0].SetLen() != 1 {
		t.Error("initial values not copied")
	}
}
