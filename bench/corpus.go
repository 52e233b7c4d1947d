package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"saql"
)

// corpusStart anchors simulated event time; only differences matter.
var corpusStart = time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)

// Marker events are the latency probes: every markerEvery-th event of the
// corpus is replaced by "beacon.exe connect 203.0.113.7", which the marker
// rule (queries.go) alerts on once per event. The marker's index travels in
// the subject pid, the one field both the pre-built and the NDJSON-decoded
// event carry through to Alert.Events.
const (
	markerEvery = 100
	markerExe   = "beacon.exe"
	markerDstIP = "203.0.113.7"
)

// corpusSpec sizes a corpus. The full spec is the issue's fleet-60 mix cut
// to two simulated minutes (~87k events) so that a closed-loop rep takes
// about a second and a 30 s run holds five to eight rounds; the
// smoke test uses a five-host, one-minute corpus.
type corpusSpec struct {
	Workstations, Mail, Web, DB int
	Duration                    time.Duration
}

var (
	fullSpec  = corpusSpec{Workstations: 24, Mail: 12, Web: 12, DB: 12, Duration: 2 * time.Minute}
	smokeSpec = corpusSpec{Workstations: 2, Mail: 1, Web: 1, DB: 1, Duration: time.Minute}
)

// victim is one host triple the kill chain (and the cold query set) is
// pinned to.
type victim struct{ Workstation, Mail, DB string }

// corpus is one seed's generated input: events in time order, the marker
// positions, and the victims the host-pinned queries name.
type corpus struct {
	Spec    corpusSpec
	Events  []*saql.Event
	Markers []int // event index of marker m
	// Victims[0] suffers the kill chain; Victims[1] is a second pinned
	// triple that stays quiet, so half the cold queries never fire.
	Victims [2]victim
	Attack  saql.AttackScenario
	GenTime time.Duration
	Hash    uint64 // FNV-1a over every event's identifying fields
}

func (s corpusSpec) hosts() []saql.Host {
	var out []saql.Host
	add := func(n int, prefix string, kind saql.HostKind) {
		for i := 1; i <= n; i++ {
			out = append(out, saql.Host{AgentID: fmt.Sprintf("%s-%d", prefix, i), Kind: kind})
		}
	}
	add(s.Workstations, "ws", saql.Workstation)
	add(s.Mail, "mail", saql.MailServer)
	add(s.Web, "web", saql.WebServer)
	add(s.DB, "db", saql.DBServer)
	return out
}

// genCorpus derives the whole input from seed: the background stream, which
// hosts the kill chain hits and when, and (through the fixed stride) the
// marker positions.
func genCorpus(spec corpusSpec, seed int64) (*corpus, error) {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(seed))
	wl, err := saql.NewWorkload(saql.WorkloadConfig{
		Hosts: spec.hosts(), Start: corpusStart, Duration: spec.Duration, Seed: rng.Int63(),
	})
	if err != nil {
		return nil, err
	}
	events := wl.Drain()

	c := &corpus{Spec: spec}
	pick := func(prefix string, n int, not string) string {
		for {
			if h := fmt.Sprintf("%s-%d", prefix, 1+rng.Intn(n)); h != not || n == 1 {
				return h
			}
		}
	}
	c.Victims[0] = victim{pick("ws", spec.Workstations, ""), pick("mail", spec.Mail, ""), pick("db", spec.DB, "")}
	c.Victims[1] = victim{
		pick("ws", spec.Workstations, c.Victims[0].Workstation),
		pick("mail", spec.Mail, c.Victims[0].Mail),
		pick("db", spec.DB, c.Victims[0].DB),
	}
	// The chain (five steps, ~55 s of activity plus four gaps) must end
	// inside the corpus; its start is drawn from the slack that leaves.
	gap := spec.Duration / 12
	chainLen := 4*gap + 60*time.Second
	slack := spec.Duration - chainLen
	if slack < time.Second {
		gap, slack = time.Second, time.Second
	}
	c.Attack = saql.AttackScenario{
		Workstation: c.Victims[0].Workstation,
		MailServer:  c.Victims[0].Mail,
		DBServer:    c.Victims[0].DB,
		AttackerIP:  "172.16.0.129",
		Start:       corpusStart.Add(time.Duration(rng.Int63n(int64(slack)))),
		StepGap:     gap,
	}
	events = append(events, saql.AttackEventsOnly(c.Attack.Events())...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })

	// Markers keep the replaced event's time and host, so stream order and
	// the per-host mix are untouched. Attack events are never replaced.
	for i := markerEvery - 1; i < len(events); i += markerEvery {
		j := i
		for events[j].ID == 0 && j+1 < len(events) {
			j++ // ID 0 = attack event (the generator numbers from 1)
		}
		m := len(c.Markers)
		old := events[j]
		events[j] = &saql.Event{
			Time: old.Time, AgentID: old.AgentID,
			Subject: saql.Process(markerExe, int32(m)),
			Op:      saql.OpConnect,
			Object:  saql.NetConn("10.9.9.9", 49152, markerDstIP, 443),
			Amount:  64,
		}
		c.Markers = append(c.Markers, j)
	}
	h := fnv.New64a()
	for i, ev := range events {
		ev.ID = uint64(i + 1)
		fmt.Fprintf(h, "%d|%s|%s|%d|%s|%.3f\n", ev.Time.UnixNano(), ev.AgentID, ev.Subject.Key(), ev.Op, ev.Object.Key(), ev.Amount)
	}
	c.Events = events
	c.Hash = h.Sum64()
	c.GenTime = time.Since(t0)
	return c, nil
}
