package attack

import (
	"testing"
	"time"

	"saql/internal/engine"
	"saql/internal/event"
	"saql/internal/scheduler"
)

var base = time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)

func TestKillChainStructure(t *testing.T) {
	s := &Scenario{
		Workstation: "ws-victim", MailServer: "mail-1", DBServer: "db-1",
		AttackerIP: "172.16.0.129", Start: base,
	}
	evs := s.Events()
	if len(evs) < 20 {
		t.Fatalf("kill chain = %d events, suspiciously few", len(evs))
	}

	// Time-ordered.
	for i := 1; i < len(evs); i++ {
		if evs[i].Event.Time.Before(evs[i-1].Event.Time) {
			t.Fatalf("event %d out of order", i)
		}
	}

	// All five steps present, in order of first occurrence.
	firstSeen := map[Step]int{}
	for i, l := range evs {
		if _, ok := firstSeen[l.Step]; !ok {
			firstSeen[l.Step] = i
		}
	}
	prev := -1
	for _, step := range Steps {
		idx, ok := firstSeen[step]
		if !ok {
			t.Fatalf("step %s missing", step)
		}
		if idx < prev {
			t.Errorf("step %s out of kill-chain order", step)
		}
		prev = idx
	}

	// c1-c3 happen on the workstation, c4-c5 on the DB server.
	for _, l := range evs {
		switch l.Step {
		case StepInitialCompromise, StepMalwareInfection, StepPrivilegeEscalation:
			if l.Event.AgentID != s.Workstation {
				t.Errorf("step %s on %s, want workstation", l.Step, l.Event.AgentID)
			}
		case StepPenetration, StepDataExfiltration:
			if l.Event.AgentID != s.DBServer {
				t.Errorf("step %s on %s, want db server", l.Step, l.Event.AgentID)
			}
		}
	}

	// The exfiltration moves tens of MB to the attacker.
	var exfil float64
	for _, l := range evs {
		if l.Step == StepDataExfiltration && l.Event.Object.Type == event.EntityNetConn &&
			l.Event.Object.DstIP == s.AttackerIP {
			exfil += l.Event.Amount
		}
	}
	if exfil < 50e6 {
		t.Errorf("exfiltrated bytes = %g, want >= 50MB", exfil)
	}

	if got := EventsOnly(evs); len(got) != len(evs) {
		t.Error("EventsOnly lost events")
	}
	if !s.End().After(s.Start) {
		t.Error("End() not after Start")
	}
}

func TestDefaultsApplied(t *testing.T) {
	s := &Scenario{Start: base}
	evs := s.Events()
	// Defaults appear in the generated events without mutating the
	// scenario (methods must be safe for concurrent use).
	if s.Workstation != "" || s.DBServer != "" || s.AttackerIP != "" {
		t.Error("Events() must not mutate the scenario")
	}
	agents := map[string]bool{}
	var attackerSeen bool
	for _, l := range evs {
		agents[l.Event.AgentID] = true
		if l.Event.Object.Type == event.EntityNetConn && l.Event.Object.DstIP == "172.16.0.129" {
			attackerSeen = true
		}
	}
	if !agents["ws-victim"] || !agents["db-1"] || !attackerSeen {
		t.Errorf("default topology missing from events: %v attacker=%v", agents, attackerSeen)
	}
}

func TestDemoQueriesCompile(t *testing.T) {
	s := &Scenario{Start: base}
	queries := s.DemoQueries(30*time.Second, 10)
	if len(queries) != 8 {
		t.Fatalf("queries = %d, want 8", len(queries))
	}
	models := map[string]int{}
	for _, nq := range queries {
		q, err := engine.Compile(nq.Name, nq.SAQL, engine.CompileOptions{})
		if err != nil {
			t.Errorf("query %s does not compile: %v", nq.Name, err)
			continue
		}
		models[nq.Model]++
		// Declared model matches the compiled kind.
		want := map[string]engine.ModelKind{
			"rule": engine.KindRule, "time-series": engine.KindTimeSeries,
			"invariant": engine.KindInvariant, "outlier": engine.KindOutlier,
		}[nq.Model]
		if q.Kind != want {
			t.Errorf("query %s kind = %v, declared %s", nq.Name, q.Kind, nq.Model)
		}
	}
	if models["rule"] != 5 || models["invariant"] != 1 || models["time-series"] != 1 || models["outlier"] != 1 {
		t.Errorf("model mix = %v", models)
	}
}

// Each rule query detects exactly its own step when run over the pure
// attack trace (no background): per-step attribution is exact.
func TestRuleQueriesDetectTheirSteps(t *testing.T) {
	s := &Scenario{Start: base}
	evs := EventsOnly(s.Events())
	for _, nq := range s.DemoQueries(30*time.Second, 10) {
		if nq.Model != "rule" {
			continue
		}
		q, err := engine.Compile(nq.Name, nq.SAQL, engine.CompileOptions{})
		if err != nil {
			t.Fatalf("%s: %v", nq.Name, err)
		}
		if alerts := alertsOf(t, q, evs, false); alerts == 0 {
			t.Errorf("query %s (step %s) did not fire on the attack trace", nq.Name, nq.Step)
		}
	}
}

func TestScenarioStepGap(t *testing.T) {
	fast := &Scenario{Start: base, StepGap: time.Second}
	slow := &Scenario{Start: base, StepGap: 10 * time.Minute}
	if !fast.End().Before(slow.End()) {
		t.Error("step gap has no effect")
	}
}

// alertsOf runs evs through q alone on a scheduler of its own — the serial
// engine's fold — and counts the alerts, those of the final flush too when
// flush is set.
func alertsOf(t *testing.T, q *engine.Query, evs []*event.Event, flush bool) int {
	t.Helper()
	s := scheduler.New(nil, false)
	if err := s.Add(q); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ev := range evs {
		n += len(s.Process(ev))
	}
	if flush {
		n += len(s.Flush())
	}
	return n
}
