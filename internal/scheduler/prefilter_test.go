package scheduler

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"saql/internal/attack"
	"saql/internal/collector"
	"saql/internal/conformance"
	"saql/internal/engine"
	"saql/internal/event"
)

// prefilterStreams are the streams the soundness fence runs: the five-host
// demo workload with the APT kill chain planted in it, and a disordered
// stream from conformance.Disorder.
func prefilterStreams(t *testing.T) map[string][]*event.Event {
	t.Helper()
	start := time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC)
	gen, err := collector.New(collector.Config{
		Hosts: []collector.Host{
			{AgentID: "ws-victim", Kind: collector.Workstation},
			{AgentID: "ws-2", Kind: collector.Workstation},
			{AgentID: "mail-1", Kind: collector.MailServer},
			{AgentID: "web-1", Kind: collector.WebServer},
			{AgentID: "db-1", Kind: collector.DBServer},
		},
		Start:    start,
		Duration: 3 * time.Minute,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := &attack.Scenario{
		Workstation: "ws-victim",
		MailServer:  "mail-1",
		DBServer:    "db-1",
		AttackerIP:  "172.16.0.129",
		Start:       start.Add(time.Minute),
	}
	demo := append(gen.Drain(), attack.EventsOnly(sc.Events())...)
	sort.SliceStable(demo, func(i, j int) bool { return demo[i].Time.Before(demo[j].Time) })
	disorder := conformance.Disorder{
		Seed: 7, Start: start, Events: 2000, Window: 10 * time.Second, Late: 2, Jump: 30 * time.Second,
	}.Stream()
	return map[string][]*event.Event{"demo": demo, "disorder": disorder}
}

// respell gives every event of evs a copy whose agentid is spelled in a
// random mix of cases, and one event in eight the default agentid a line
// with neither "agent" nor "host" decodes to.
func respell(rng *rand.Rand, evs []*event.Event) []*event.Event {
	out := make([]*event.Event, len(evs))
	for i, ev := range evs {
		cp := *ev
		cp.AgentID = spell(rng, cp.AgentID)
		if rng.Intn(8) == 0 {
			cp.AgentID = "ndjson"
		}
		out[i] = &cp
	}
	return out
}

// checkPrefilterSound fails t when an event some registered query of s hits
// is one the prefilter of qs does not admit, and returns how many events the
// table does not admit.
func checkPrefilterSound(t testing.TB, s *Scheduler, qs []*engine.Query, evs []*event.Event) (rejected int) {
	t.Helper()
	table := NewPrefilter(qs)
	for _, ev := range evs {
		admit := table.Admit([]byte(ev.AgentID), ev.Op)
		if !admit {
			rejected++
		}
		if hits, _ := refEvaluate(s, ev); len(hits) > 0 && !admit {
			t.Fatalf("event %v (agentid %q) hits %v but the prefilter does not admit it", ev, ev.AgentID, hits)
		}
	}
	return rejected
}

// pinnedVariants are pinned queries beside the corpus's fleet-wide ones: an
// agentid pin under each of the attribute's names and in mixed case, the
// default agentid of a line with no agent, a non-ASCII one and one longer
// than the fold buffer.
var pinnedVariants = []string{
	`agentid = "DB-1"
proc p delete || rename file f return p, f`,
	`host = "ws-Victim"
proc p start proc c as e return p, c`,
	`agent_id = "mail-1"
proc p write ip i as e #time(10 s)
state ss { n := count(e) } group by p
alert ss.n > 2
return p, ss.n`,
	`agentid = "NDJSON"
proc p read file f return p, f`,
	`agentid = "ħost-4"
proc p execute file f return p, f`,
	`agentid = "` + strings.Repeat("ab", 40) + `"
proc p connect ip i return p, i`,
	`agentid = "host-2"
proc p write ip i as e return p, i`,
}

// TestPrefilterSound: every event a registered query hits is admitted by the
// prefilter table of the registered queries — for each corpus query alone,
// and for mixes of pinned and fleet-wide queries, over the demo stream and a
// disordered one, with agentids in random case, missing (the default), not
// ASCII or longer than the fold buffer. The agentid dispatch fence's random
// cases (NewDispatchCase) run through the same check.
func TestPrefilterSound(t *testing.T) {
	streams := prefilterStreams(t)
	rng := rand.New(rand.NewSource(33))
	// Respell each stream, then each respelled one once more, in a fixed
	// order: adding to the map while ranging over it made the set of
	// subtests depend on map iteration.
	for _, name := range []string{"demo", "disorder", "demo/respelled", "disorder/respelled"} {
		streams[name+"/respelled"] = respell(rng, streams[name])
	}
	rejected := 0
	register := func(t *testing.T, srcs map[string]string) (*Scheduler, []*engine.Query) {
		s := New(nil, true)
		var qs []*engine.Query
		for name, src := range srcs {
			q := compile(t, name, src)
			if err := s.Add(q); err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
		return s, qs
	}
	t.Run("corpus", func(t *testing.T) {
		for _, c := range conformance.Corpus {
			s, qs := register(t, map[string]string{c.Name: c.Src})
			for name, evs := range streams {
				t.Run(c.Name+"/"+name, func(t *testing.T) {
					rejected += checkPrefilterSound(t, s, qs, evs)
				})
			}
		}
	})
	t.Run("pinned", func(t *testing.T) {
		for i, src := range pinnedVariants {
			s, qs := register(t, map[string]string{fmt.Sprintf("pin%d", i): src})
			for _, evs := range streams {
				rejected += checkPrefilterSound(t, s, qs, evs)
			}
		}
	})
	t.Run("mixes", func(t *testing.T) {
		for k := range 20 {
			srcs := map[string]string{}
			for i := range 1 + rng.Intn(4) {
				srcs[fmt.Sprintf("pin%d", i)] = pinnedVariants[rng.Intn(len(pinnedVariants))]
			}
			for i := range rng.Intn(3) {
				c := conformance.Corpus[rng.Intn(len(conformance.Corpus))]
				srcs[fmt.Sprintf("fleet%d", i)] = c.Src
			}
			s, qs := register(t, srcs)
			for name, evs := range streams {
				t.Run(fmt.Sprintf("mix=%d/%s", k, name), func(t *testing.T) {
					rejected += checkPrefilterSound(t, s, qs, evs)
				})
			}
		}
	})
	t.Run("dispatch", func(t *testing.T) {
		for _, sd := range DispatchSeeds(t) {
			t.Run(sd.Label, func(t *testing.T) {
				c := NewDispatchCase(sd.Value)
				srcs := map[string]string{}
				for _, q := range c.Queries {
					srcs[q.Name] = q.Src
				}
				s, qs := register(t, srcs)
				rejected += checkPrefilterSound(t, s, qs, c.Events)
			})
		}
	})
	if rejected == 0 {
		t.Fatal("the prefilter admitted every event of every case: the fence tests nothing")
	}
	t.Logf("events not admitted, over every case: %d", rejected)
}

// FuzzPrefilterSound is TestPrefilterSound's property over the dispatch
// fence's random cases, with one more event of a fuzzed agentid and
// operation.
func FuzzPrefilterSound(f *testing.F) {
	f.Add(int64(1), "host-1", uint8(event.OpExecute))
	f.Add(int64(2), "ħOST-4", uint8(event.OpDelete))
	f.Add(int64(26), "K-5", uint8(event.OpRename))
	f.Add(int64(3), "", uint8(event.OpStart))
	f.Fuzz(func(t *testing.T, seed int64, agent string, op uint8) {
		c := NewDispatchCase(seed % 1000)
		s := New(nil, c.Sharing)
		var qs []*engine.Query
		for _, dq := range c.Queries {
			q, err := engine.Compile(dq.Name, dq.Src, engine.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Add(q); err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
		evs := c.Events[:50]
		extra := make([]*event.Event, 0, len(evs))
		for _, ev := range evs {
			cp := *ev
			cp.AgentID, cp.AgentSym = agent, 0
			cp.Op = event.Op(op%uint8(event.OpAccept)) + 1
			extra = append(extra, &cp)
		}
		checkPrefilterSound(t, s, qs, append(evs, extra...))
	})
}
