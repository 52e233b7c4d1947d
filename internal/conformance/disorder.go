package conformance

import (
	"fmt"
	"math/rand"
	"time"

	"saql/internal/event"
)

// Disorder shapes a seed-driven disordered stream: network writes by a dozen
// processes spread over four hosts, as a feed merged from those hosts shows
// them. The nominal clock advances Window/16 per event, and:
//   - one event in four arrives late, by up to Late windows;
//   - from the middle of the stream on, the last host's clock reads Jump
//     behind the others;
//   - one process in six writes large amounts now and then, so threshold
//     queries have something to find.
type Disorder struct {
	Seed   int64
	Start  time.Time
	Events int
	Window time.Duration
	Late   int
	Jump   time.Duration
}

// Stream generates the events, in arrival order. The same Disorder always
// yields the same stream.
func (d Disorder) Stream() []*event.Event {
	rng := rand.New(rand.NewSource(d.Seed))
	const hosts, procs, dsts = 4, 12, 6
	step := d.Window / 16
	evs := make([]*event.Event, d.Events)
	for i := range evs {
		p := rng.Intn(procs)
		host := p % hosts
		t := d.Start.Add(time.Duration(i) * step)
		if rng.Intn(4) == 0 {
			t = t.Add(-time.Duration(rng.Int63n(int64(d.Late)*int64(d.Window) + 1)))
		}
		if host == hosts-1 && i >= d.Events/2 {
			t = t.Add(-d.Jump)
		}
		amount := float64(100 + rng.Intn(900))
		if p%6 == 0 && rng.Intn(3) == 0 {
			amount += 1e5
		}
		evs[i] = &event.Event{
			ID:      uint64(i + 1),
			Time:    t,
			AgentID: fmt.Sprintf("host-%d", host),
			Subject: event.Process(fmt.Sprintf("svc-%02d.exe", p), int32(100+p)),
			Op:      event.OpWrite,
			Object:  event.NetConn("10.0.0.2", 1433, fmt.Sprintf("10.2.0.%d", rng.Intn(dsts)), 443),
			Amount:  amount,
		}
	}
	return evs
}
