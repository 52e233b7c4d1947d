package main

// Cluster coordinator mode: -cluster "host1:7443,host2:7443" turns this
// process into the coordinator of a distributed SAQL deployment. Each
// address is a running saql-worker owning a contiguous slice of the
// group-key hash space; the coordinator is the destination the run's source
// is driven into: it broadcasts the event stream and the queryset to every
// worker and prints the alerts they stream back — the union is
// alert-for-alert what a single serial engine would have raised.

import (
	"fmt"
	"os"
	"time"

	"saql"
	"saql/internal/dist"
)

type clusterParams struct {
	addrs     []string
	set       *saql.QuerySet
	quiet     bool
	ckptEvery time.Duration
	src       *saql.Source
	drive     func(dst saql.Submitter) error // runs src into dst until it ends or a signal stops it
	say       func(format string, a ...any)  // serialised printing
}

func runCluster(p clusterParams) error {
	var alertCount int64
	coord := dist.NewCoordinator(dist.Config{
		OnAlert: func(a *saql.Alert) {
			alertCount++
			if !p.quiet {
				p.say("%s\n", a)
			}
		},
		Logf: func(format string, a ...any) { p.say(format+"\n", a...) },
	})

	// Dial every worker and hand each an even slice of the hash space. The
	// worker's address doubles as its cluster identity.
	tr := dist.TCP{Timeout: 10 * time.Second}
	ranges := dist.SplitRanges(len(p.addrs))
	for i, addr := range p.addrs {
		conn, err := tr.Dial(addr)
		if err != nil {
			return fmt.Errorf("worker %s: %w", addr, err)
		}
		if err := coord.AddWorker(addr, conn, ranges[i]); err != nil {
			return fmt.Errorf("worker %s: %w", addr, err)
		}
	}
	for id, rs := range coord.Workers() {
		p.say("worker %-24s ranges=%v\n", id, rs)
	}
	for _, name := range p.set.Names() {
		src, _ := p.set.Source(name)
		if err := coord.Register(name, src); err != nil {
			return fmt.Errorf("register %s: %w", name, err)
		}
	}
	p.say("registered %d queries on %d workers\n", p.set.Len(), len(p.addrs))

	// Heartbeats keep worker leases fresh during idle stretches; periodic
	// cluster-wide checkpoint barriers bound every worker's replay tail.
	tickStop := make(chan struct{})
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		hb := time.NewTicker(10 * time.Second)
		defer hb.Stop()
		var ckpt <-chan time.Time
		if p.ckptEvery > 0 {
			t := time.NewTicker(p.ckptEvery)
			defer t.Stop()
			ckpt = t.C
		}
		for {
			select {
			case <-tickStop:
				return
			case <-hb.C:
				if err := coord.Heartbeat(); err != nil {
					fmt.Fprintln(os.Stderr, "saql: heartbeat:", err)
				}
			case <-ckpt:
				if err := coord.Checkpoint(); err != nil {
					fmt.Fprintln(os.Stderr, "saql: cluster checkpoint:", err)
				}
			}
		}
	}()
	stopTicker := func() { close(tickStop); <-tickDone }

	// SIGTERM/SIGINT stops the feed; the coordinator then closes cleanly,
	// which flushes every worker's open windows, checkpoints each state
	// directory, and drains the last alerts.
	started := time.Now()
	feedErr := p.drive(coord)
	stopTicker()
	if feedErr != nil {
		coord.Close()
		return feedErr
	}

	// Close flushes end-of-stream windows on every worker, takes each one's
	// final checkpoint, and collects the remaining alerts before the
	// summary prints.
	if err := coord.Close(); err != nil {
		return fmt.Errorf("cluster shutdown: %w", err)
	}
	wall := time.Since(started)
	events := p.src.Stats().Events
	p.say("\n--- summary ---\n")
	p.say("events fanned out: %d to %d workers (%.0f events/s)\n",
		events, len(p.addrs), float64(events)/wall.Seconds())
	p.say("alerts raised    : %d\n", alertCount)
	return nil
}
