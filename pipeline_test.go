package saql

// End-to-end pipeline tests: per-host collection feeds → one aggregated
// source → started engine, the way a deployment runs; plus a soak test
// asserting the engine's state stays bounded on long streams.

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestStreamingPipeline is the deployment's shape end to end: three
// per-host generators and the attack trace, each time-ordered, merge into
// the one aggregated feed — a single event source — which runs into a
// started engine; the stream raises the one exfiltration alert.
func TestStreamingPipeline(t *testing.T) {
	start := time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)

	hostFeed := func(agent string, kind HostKind, seed int64) func() (*Event, bool) {
		wl, err := NewWorkload(WorkloadConfig{
			Hosts:    []Host{{AgentID: agent, Kind: kind}},
			Start:    start,
			Duration: 5 * time.Minute,
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return wl.Next
	}
	// The attack trace is its own "host feed" (already time-ordered).
	scenario := &AttackScenario{
		Workstation: "ws-victim", MailServer: "mail-1", DBServer: "db-1",
		Start: start.Add(1 * time.Minute), StepGap: 20 * time.Second,
	}
	attack := AttackEventsOnly(scenario.Events())
	feeds := []func() (*Event, bool){
		hostFeed("ws-victim", Workstation, 1),
		hostFeed("db-1", DBServer, 2),
		hostFeed("web-1", WebServer, 3),
		func() (*Event, bool) {
			if len(attack) == 0 {
				return nil, false
			}
			ev := attack[0]
			attack = attack[1:]
			return ev, true
		},
	}

	// The aggregation point: always emit the earliest pending head.
	src := NewEventSource("hosts", func(_ context.Context, emit func(*Event) error) error {
		heads := make([]*Event, len(feeds))
		for i, next := range feeds {
			heads[i], _ = next()
		}
		for {
			min := -1
			for i, ev := range heads {
				if ev != nil && (min < 0 || ev.Time.Before(heads[min].Time)) {
					min = i
				}
			}
			if min < 0 {
				return nil
			}
			if err := emit(heads[min]); err != nil {
				return err
			}
			heads[min], _ = feeds[min]()
		}
	})

	var alerts []*Alert
	eng := New(WithAlertHandler(func(a *Alert) { alerts = append(alerts, a) }))
	exfil := scenario.DemoQueries(30*time.Second, 3)[4] // rule-c5
	if _, err := eng.Register(exfil.Name, exfil.SAQL); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := src.Run(context.Background(), eng); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	st := src.Stats()
	if st.Events == 0 {
		t.Fatal("pipeline delivered no events")
	}
	if st.Reordered != 0 || st.Late != 0 {
		t.Errorf("merged feed reached the source out of order: %+v", st)
	}
	if got := eng.Stats().Events; got != st.Events {
		t.Errorf("engine processed %d of %d events", got, st.Events)
	}
	if len(alerts) != 1 {
		t.Errorf("exfiltration alerts = %d, want 1", len(alerts))
	}
}

// TestSoakBoundedState streams hours of events with a large rotating group
// population and asserts the engine's retained state stays bounded (group
// eviction and partial-match expiry do their jobs).
func TestSoakBoundedState(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	eng := New()
	queries := []struct{ name, src string }{
		{"soak-ts", `proc p write ip i as e #time(1 min)
state[3] ss { amt := sum(e.amount) } group by p
alert ss[0].amt > 1000000000
return p`},
		{"soak-rule", `proc p1["%cmd.exe"] start proc p2 as e1
proc p2 write ip i as e2
with e1 -> e2
return p1, p2, i`},
	}
	for _, q := range queries {
		if _, err := eng.Register(q.name, q.src); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Date(2020, 2, 27, 0, 0, 0, 0, time.UTC)
	const hours = 4
	const perMinute = 60 // one event/second
	var n int
	for m := 0; m < hours*60; m++ {
		for i := 0; i < perMinute; i++ {
			at := start.Add(time.Duration(m)*time.Minute + time.Duration(i)*time.Second)
			// Rotating process population: ~200 live groups at any time,
			// thousands over the run.
			gen := m/10*7 + i%7
			proc := Process(fmt.Sprintf("app-%d.exe", gen), int32(1000+gen))
			eng.Process(&Event{
				Time: at, AgentID: "h",
				Subject: proc, Op: OpWrite,
				Object: NetConn("10.0.0.1", 1, fmt.Sprintf("10.1.%d.%d", gen%200, gen%250), 443),
				Amount: 1000,
			})
			n++
		}
	}
	eng.Flush()

	st := eng.Stats()
	if st.Events != int64(n) {
		t.Fatalf("processed %d of %d", st.Events, n)
	}
	// The time-series query must not have accumulated unbounded groups:
	// only recently active generations survive eviction.
	qs, _ := eng.QueryStats("soak-ts")
	if qs.WindowsClosed < int64(hours*60-1) {
		t.Errorf("windows closed = %d, want ~%d", qs.WindowsClosed, hours*60)
	}
	// Internal group count is not exported on Engine; the proxy is that
	// the run completes quickly and alert bookkeeping stays sane.
	if qs.Alerts != 0 {
		t.Errorf("threshold is unreachable; alerts = %d", qs.Alerts)
	}
}

// TestEngineConcurrentAccess exercises Engine's external thread-safety:
// queries added/removed while another goroutine processes events.
func TestEngineConcurrentAccess(t *testing.T) {
	eng := New()
	if _, err := eng.Register("base", `proc p start proc c as e return p`); err != nil {
		t.Fatal(err)
	}
	start := time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			name := fmt.Sprintf("q%d", i)
			src := fmt.Sprintf(`proc p[pid > %d] start proc c as e return p`, i)
			h, err := eng.Register(name, src)
			if err != nil {
				t.Errorf("Register: %v", err)
				return
			}
			if i%2 == 0 {
				_ = h.Close()
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		eng.Process(&Event{
			Time: start.Add(time.Duration(i) * time.Millisecond), AgentID: "h",
			Subject: Process("cmd.exe", int32(i)), Op: OpStart, Object: Process("x", int32(i)),
		})
	}
	<-done
	if got := eng.Stats().Events; got != 2000 {
		t.Errorf("events = %d", got)
	}
}
