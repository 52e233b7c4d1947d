package attack

import (
	"testing"
	"time"

	"saql/internal/engine"
	"saql/internal/event"
)

func TestRansomwareTraceStructure(t *testing.T) {
	r := &RansomwareScenario{Start: base, Files: 25}
	evs := r.Events()
	if len(evs) < 25*3+4 {
		t.Fatalf("trace = %d events", len(evs))
	}
	var deletes, renames, execs, lockedWrites int
	for i, l := range evs {
		if i > 0 && l.Event.Time.Before(evs[i-1].Event.Time) {
			t.Fatal("trace out of order")
		}
		switch l.Event.Op {
		case event.OpDelete:
			deletes++
		case event.OpRename:
			renames++
		case event.OpExecute:
			execs++
		case event.OpWrite:
			if l.Event.Object.Type == event.EntityFile &&
				len(l.Event.Object.Path) > 7 && l.Event.Object.Path[len(l.Event.Object.Path)-7:] == ".locked" {
				lockedWrites++
			}
		}
	}
	if deletes != 25 {
		t.Errorf("deletes = %d, want 25", deletes)
	}
	if lockedWrites != 25 {
		t.Errorf("locked writes = %d, want 25", lockedWrites)
	}
	if execs != 1 {
		t.Errorf("execs = %d, want 1", execs)
	}
	// Methods must not mutate the scenario.
	if r.Host != "" || r.AttackerIP != "" {
		t.Error("Events() mutated the scenario")
	}
}

func TestRansomwareDetection(t *testing.T) {
	r := &RansomwareScenario{Start: base.Add(time.Minute)}
	queries := r.DetectionQueries(30 * time.Second)
	if len(queries) != 3 {
		t.Fatalf("queries = %d", len(queries))
	}

	var compiled []*engine.Query
	for _, nq := range queries {
		q, err := engine.Compile(nq.Name, nq.SAQL, engine.CompileOptions{})
		if err != nil {
			t.Fatalf("%s: %v", nq.Name, err)
		}
		compiled = append(compiled, q)
	}

	// Benign prelude: a user saving and tidying a few documents must not
	// trigger the behavioural queries.
	word := event.Process("winword.exe", 900)
	var evs []*event.Event
	for i := 0; i < 5; i++ {
		at := base.Add(time.Duration(i) * 5 * time.Second)
		evs = append(evs,
			&event.Event{Time: at, AgentID: "ws-victim", Subject: word, Op: event.OpWrite,
				Object: event.File(`C:\Users\victim\Documents\draft.docx`), Amount: 80_000},
			&event.Event{Time: at.Add(time.Second), AgentID: "ws-victim", Subject: word, Op: event.OpDelete,
				Object: event.File(`C:\Users\victim\Documents\~tmp.docx`)},
		)
	}
	evs = append(evs, EventsOnly(r.Events())...)
	// Close trailing windows.
	evs = append(evs, &event.Event{Time: base.Add(10 * time.Minute), AgentID: "ws-victim",
		Subject: word, Op: event.OpRead, Object: event.File(`C:\x`)})

	counts := map[string]int{}
	for _, q := range compiled {
		counts[q.Name] += alertsOf(t, q, evs, true)
	}
	for _, nq := range queries {
		if counts[nq.Name] == 0 {
			t.Errorf("query %s raised no alert", nq.Name)
		}
	}
}

func TestRansomwareBenignSilence(t *testing.T) {
	r := &RansomwareScenario{}
	queries := r.DetectionQueries(30 * time.Second)
	// Only benign editing activity: all three queries must stay silent.
	word := event.Process("winword.exe", 900)
	var evs []*event.Event
	for i := 0; i < 60; i++ {
		at := base.Add(time.Duration(i) * 10 * time.Second)
		evs = append(evs,
			&event.Event{Time: at, AgentID: "ws-victim", Subject: word, Op: event.OpWrite,
				Object: event.File(`C:\Users\victim\Documents\draft.docx`), Amount: 90_000},
			&event.Event{Time: at.Add(2 * time.Second), AgentID: "ws-victim", Subject: word, Op: event.OpDelete,
				Object: event.File(`C:\Users\victim\Documents\~autosave.tmp`)},
		)
	}
	for _, nq := range queries {
		q, err := engine.Compile(nq.Name, nq.SAQL, engine.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if alerts := alertsOf(t, q, evs, true); alerts != 0 {
			t.Errorf("query %s raised %d alerts on benign traffic", nq.Name, alerts)
		}
	}
}
