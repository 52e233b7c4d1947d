package dist_test

// Distributed conformance: the cluster — three workers on the checkpoint
// substrate, driven through one coordinator — must emit exactly the same
// alerts as a never-started serial engine running the same script, while a
// seed-derived fault plan kills and replaces workers mid-stream, migrates
// key ranges live, and forces extra barriers. The serial reference never
// sees any of that: kills, replacements, migrations, and checkpoints must
// be invisible in the alert stream.

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"saql"
	"saql/internal/conformance"
	"saql/internal/dist"
	"saql/internal/leakcheck"
)

// groupedSum is the small cluster tests' query: a per-process sum over one
// long window, which the fleet's noisy processes cross.
var groupedSum = conformance.Src("sum-count-by-p", "1 h", 1000000)

func sortedClusterIdentities(alerts []*saql.Alert) []string {
	out := make([]string, 0, len(alerts))
	for _, a := range alerts {
		out = append(out, dist.AlertIdentity(a))
	}
	sort.Strings(out)
	return out
}

func diffIdentitySets(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: alert count: cluster=%d serial=%d", label, len(got), len(want))
	}
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			t.Fatalf("%s: alert sets diverge at #%d:\n  cluster: %s\n  serial:  %s", label, i, got[i], want[i])
		}
	}
}

// TestClusterMatchesSerial is the distributed recovery-equivalence hammer.
// Three in-process workers — each a real engine journaling and checkpointing
// its own directory — play conformance.Sim's script over the ordered fleet,
// queryset operations and cluster faults alike: at least one worker kill
// (with events submitted before the replacement arrives) and at least one
// live key-range migration. The delivered alert multiset must equal the
// uninterrupted serial run's, alert for alert.
func TestClusterMatchesSerial(t *testing.T) {
	leakcheck.Check(t)
	clusterMatchesSerial(t, conformance.Ordered)
}

// TestClusterMatchesSerialDisordered runs the same hammer over the disordered
// stream (conformance.Disorder: late by up to three windows, one host's clock
// jumping back).
func TestClusterMatchesSerialDisordered(t *testing.T) {
	leakcheck.Check(t)
	clusterMatchesSerial(t, conformance.Disordered)
}

func clusterMatchesSerial(t *testing.T, stream conformance.Stream) {
	for _, s := range conformance.Seeds(t) {
		t.Run(s.Label, func(t *testing.T) {
			sim := conformance.NewSim(s.Value, stream)
			want := serialRun(t, sim)
			if len(want) == 0 {
				t.Fatal("serial reference produced no alerts")
			}
			diffIdentitySets(t, fmt.Sprintf("seed %d", s.Value), want, clusterRun(t, sim))
		})
	}
}

// serialRun plays sim's queryset operations on a never-started engine, the
// contract's reference, and returns its sorted alert identities.
func serialRun(t *testing.T, sim *conformance.Sim) []string {
	eng := saql.New()
	for _, q := range sim.Queries {
		if _, err := eng.Register(q.Name, q.Src); err != nil {
			t.Fatal(err)
		}
	}
	var alerts []*saql.Alert
	sim.Run(func(st conformance.Step) {
		var err error
		switch st.Op {
		case conformance.Submit:
			for _, ev := range sim.Events[st.From:st.To] {
				alerts = append(alerts, eng.Process(ev)...)
			}
		case conformance.Register:
			_, err = eng.Register(st.Name, st.Src)
		case conformance.Pause, conformance.Resume, conformance.Update, conformance.Remove:
			h, ok := eng.Query(st.Name)
			if !ok {
				t.Fatalf("%s: no query %q", st.Op, st.Name)
			}
			switch st.Op {
			case conformance.Pause:
				err = h.Pause()
			case conformance.Resume:
				err = h.Resume()
			case conformance.Remove:
				err = h.Close()
			default:
				var carry []saql.UpdateOption
				if st.Carry {
					carry = append(carry, saql.CarryWindowState())
				}
				err = h.Update(st.Src, carry...)
			}
		case conformance.Stats, conformance.Kill, conformance.Replace, conformance.Migrate, conformance.Barrier:
			// The cluster reads no counters, and one engine has no workers to fail.
		default:
			t.Fatalf("no serial runner for step %q", st.Op)
		}
		if err != nil {
			t.Fatalf("%s %s: %v", st.Op, st.Name, err)
		}
	})
	return sortedClusterIdentities(append(alerts, eng.Flush()...))
}

// clusterRun plays sim on three workers behind one coordinator and returns
// the sorted identities of the alerts it delivered. Workers run in-process
// over synchronous pipes, each with its own journal and checkpoint directory,
// which a kill leaves behind for the replacement. At most one worker is dead
// at a time, replaced lazily — so the epoch catch-up path runs — but always
// before the next operation that needs every worker; a run in which no
// submit found a worker dead fails.
func clusterRun(t *testing.T, sim *conformance.Sim) []string {
	ids := make([]string, conformance.Workers)
	dirs := make([]string, conformance.Workers)
	live := make([]*dist.Worker, conformance.Workers)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%d", i)
		dirs[i] = t.TempDir()
	}
	spawn := func(i int) net.Conn {
		w := dist.NewWorker(dist.WorkerConfig{Dir: dirs[i], Shards: 2, Logf: t.Logf})
		live[i] = w
		client, server := net.Pipe()
		go func() { _ = w.Serve(server) }()
		return client
	}
	var gmu sync.Mutex
	var got []*saql.Alert
	coord := dist.NewCoordinator(dist.Config{
		OnAlert:    func(a *saql.Alert) { gmu.Lock(); got = append(got, a); gmu.Unlock() },
		AckTimeout: time.Minute,
		Logf:       t.Logf,
	})
	ranges := dist.SplitRanges(conformance.Workers)
	for i := range ids {
		if err := coord.AddWorker(ids[i], spawn(i), ranges[i]); err != nil {
			t.Fatalf("AddWorker(%s): %v", ids[i], err)
		}
	}
	for _, q := range sim.Queries {
		if err := coord.Register(q.Name, q.Src); err != nil {
			t.Fatalf("Register(%s): %v", q.Name, err)
		}
	}

	dead := -1
	waitDead := func(i int) {
		deadline := time.Now().Add(10 * time.Second)
		for !slices.Contains(coord.DeadWorkers(), ids[i]) {
			if time.Now().After(deadline) {
				t.Fatalf("worker %s never marked dead", ids[i])
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	replace := func() {
		if dead < 0 {
			return
		}
		i := dead
		dead = -1
		waitDead(i)
		if err := coord.ReplaceWorker(ids[i], spawn(i)); err != nil {
			t.Fatalf("ReplaceWorker(%s): %v", ids[i], err)
		}
	}
	kills, migrations, deadSubmits := 0, 0, 0
	sim.Run(func(st conformance.Step) {
		if st.Op == conformance.Stats {
			return
		}
		if st.Op != conformance.Submit {
			replace()
		}
		var err error
		switch st.Op {
		case conformance.Submit:
			if dead >= 0 {
				deadSubmits++
			}
			err = coord.SubmitBatch(sim.Events[st.From:st.To])
		case conformance.Pause:
			err = coord.Pause(st.Name)
		case conformance.Resume:
			err = coord.Resume(st.Name)
		case conformance.Update:
			err = coord.Update(st.Name, st.Src, st.Carry)
		case conformance.Register:
			err = coord.Register(st.Name, st.Src)
		case conformance.Remove:
			err = coord.Remove(st.Name)
		case conformance.Kill:
			live[st.From].Kill()
			waitDead(st.From)
			dead = st.From
			kills++
		case conformance.Barrier, conformance.Checkpoint:
			err = coord.Checkpoint()
		case conformance.Migrate:
			// Move the upper half of the source's widest range.
			rs := coord.Workers()[ids[st.From]]
			if len(rs) == 0 {
				t.Fatalf("worker %s owns no ranges", ids[st.From])
			}
			widest := rs[0]
			for _, r := range rs[1:] {
				if r.Hi-r.Lo > widest.Hi-widest.Lo {
					widest = r
				}
			}
			if widest.Hi-widest.Lo < 2 {
				return // nothing meaningful left to split
			}
			mid := widest.Lo + (widest.Hi-widest.Lo)/2
			err = coord.Migrate(ids[st.From], ids[st.To], []saql.KeyRange{{Lo: mid + 1, Hi: widest.Hi}})
			migrations++
		case conformance.Flush, conformance.Start, conformance.Crash:
			t.Fatalf("a cluster has no %s step", st.Op)
		}
		if err != nil {
			t.Fatalf("%s %s: %v", st.Op, st.Name, err)
		}
	})
	replace()
	if err := coord.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if kills == 0 || migrations == 0 || deadSubmits == 0 {
		t.Fatalf("the fault plan executed %d kills, %d migrations and %d submits with a worker dead; each must be >= 1", kills, migrations, deadSubmits)
	}
	t.Logf("%d steps; the fault plan executed %d kills, %d migrations and %d submits with a worker dead", len(sim.Script), kills, migrations, deadSubmits)
	gmu.Lock()
	defer gmu.Unlock()
	return sortedClusterIdentities(got)
}

// TestClusterOverTCP is the wire smoke test: the same coordinator/worker
// stack over real TCP sockets — two saql-worker-equivalent loops behind a
// listener — must match serial on a plain run with a barrier in the middle.
func TestClusterOverTCP(t *testing.T) {
	leakcheck.Check(t)
	const workers = 2
	events := conformance.Fleet(conformance.Epoch, 28, 10)
	src := groupedSum

	ref := saql.New()
	if _, err := ref.Register("grouped-sum", src); err != nil {
		t.Fatal(err)
	}
	var want []*saql.Alert
	for _, ev := range events {
		want = append(want, ref.Process(ev)...)
	}
	want = append(want, ref.Flush()...)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no TCP listener available: %v", err)
	}
	defer ln.Close()
	var served sync.WaitGroup
	served.Add(workers)
	go func() {
		for i := 0; i < workers; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			w := dist.NewWorker(dist.WorkerConfig{Dir: t.TempDir(), Shards: 1})
			go func() { defer served.Done(); _ = w.Serve(conn) }()
		}
	}()

	var gmu sync.Mutex
	var got []*saql.Alert
	coord := dist.NewCoordinator(dist.Config{
		OnAlert: func(a *saql.Alert) { gmu.Lock(); got = append(got, a); gmu.Unlock() },
	})
	tr := dist.TCP{Timeout: 5 * time.Second}
	ranges := dist.SplitRanges(workers)
	for i := 0; i < workers; i++ {
		conn, err := tr.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.AddWorker(fmt.Sprintf("w%d", i), conn, ranges[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Register("grouped-sum", src); err != nil {
		t.Fatal(err)
	}
	half := len(events) / 2
	if err := coord.SubmitBatch(events[:half]); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := coord.SubmitBatch(events[half:]); err != nil {
		t.Fatal(err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	served.Wait()

	gmu.Lock()
	gotIDs := sortedClusterIdentities(got)
	gmu.Unlock()
	diffIdentitySets(t, "tcp", sortedClusterIdentities(want), gotIDs)
}

// TestClusterInProcTransport drives a small cluster through the InProc
// transport — Dial constructs the worker — and exercises replacement by
// re-dialing the same address after a kill.
func TestClusterInProcTransport(t *testing.T) {
	leakcheck.Check(t)
	events := conformance.Fleet(conformance.Epoch, 21, 8)
	src := groupedSum

	ref := saql.New()
	if _, err := ref.Register("grouped-sum", src); err != nil {
		t.Fatal(err)
	}
	var want []*saql.Alert
	for _, ev := range events {
		want = append(want, ref.Process(ev)...)
	}
	want = append(want, ref.Flush()...)

	inproc := dist.NewInProc()
	inproc.Register("a", dist.WorkerConfig{Dir: t.TempDir(), Shards: 1})
	inproc.Register("b", dist.WorkerConfig{Dir: t.TempDir(), Shards: 1})

	var gmu sync.Mutex
	var got []*saql.Alert
	coord := dist.NewCoordinator(dist.Config{
		OnAlert: func(a *saql.Alert) { gmu.Lock(); got = append(got, a); gmu.Unlock() },
	})
	ranges := dist.SplitRanges(2)
	for i, addr := range []string{"a", "b"} {
		conn, err := inproc.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.AddWorker(addr, conn, ranges[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Register("grouped-sum", src); err != nil {
		t.Fatal(err)
	}
	third := len(events) / 3
	if err := coord.SubmitBatch(events[:third]); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Kill "b" mid-epoch, keep submitting, then replace it by re-dialing.
	inproc.Worker("b").Kill()
	deadline := time.Now().Add(10 * time.Second)
	for len(coord.DeadWorkers()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("kill never observed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := coord.SubmitBatch(events[third : 2*third]); err != nil {
		t.Fatal(err)
	}
	conn, err := inproc.Dial("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.ReplaceWorker("b", conn); err != nil {
		t.Fatal(err)
	}
	if err := coord.SubmitBatch(events[2*third:]); err != nil {
		t.Fatal(err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}

	gmu.Lock()
	gotIDs := sortedClusterIdentities(got)
	gmu.Unlock()
	diffIdentitySets(t, "inproc", sortedClusterIdentities(want), gotIDs)
}

// TestHeartbeatLease pins the failure model's detection half: heartbeats
// renew a worker's lease; a silent worker expires, is declared dead, and
// its identity restores onto a replacement.
func TestHeartbeatLease(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	spawn := func() net.Conn {
		w := dist.NewWorker(dist.WorkerConfig{Dir: dir, Shards: 1})
		client, server := net.Pipe()
		go func() { _ = w.Serve(server) }()
		return client
	}
	coord := dist.NewCoordinator(dist.Config{Lease: 250 * time.Millisecond})
	if err := coord.AddWorker("w0", spawn(), dist.SplitRanges(1)[0]); err != nil {
		t.Fatal(err)
	}
	// Heartbeats keep the lease alive well past its duration.
	for i := 0; i < 4; i++ {
		if err := coord.Heartbeat(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Millisecond)
		if expired := coord.ExpireLeases(); len(expired) != 0 {
			t.Fatalf("lease expired despite heartbeats: %v", expired)
		}
	}
	// Silence expires it.
	time.Sleep(400 * time.Millisecond)
	expired := coord.ExpireLeases()
	if len(expired) != 1 || expired[0] != "w0" {
		t.Fatalf("expired = %v, want [w0]", expired)
	}
	if dead := coord.DeadWorkers(); len(dead) != 1 || dead[0] != "w0" {
		t.Fatalf("dead = %v, want [w0]", dead)
	}
	// The failure model's recovery half: replace onto the same directory.
	if err := coord.ReplaceWorker("w0", spawn()); err != nil {
		t.Fatalf("replace after lease expiry: %v", err)
	}
	if dead := coord.DeadWorkers(); len(dead) != 0 {
		t.Fatalf("dead after replacement = %v", dead)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerShutdownJoinsGoroutines pins worker teardown: a served worker
// that ingests events and is then shut down leaves no goroutines behind —
// neither its engine's shards nor the serve loop.
func TestWorkerShutdownJoinsGoroutines(t *testing.T) {
	leakcheck.Check(t)
	events := conformance.Fleet(conformance.Epoch, 14, 6)
	var gmu sync.Mutex
	n := 0
	coord := dist.NewCoordinator(dist.Config{
		OnAlert: func(*saql.Alert) { gmu.Lock(); n++; gmu.Unlock() },
	})
	w := dist.NewWorker(dist.WorkerConfig{Dir: t.TempDir(), Shards: 2})
	client, server := net.Pipe()
	go func() { _ = w.Serve(server) }()
	if err := coord.AddWorker("w0", client, dist.SplitRanges(1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := coord.Register("grouped-sum", groupedSum); err != nil {
		t.Fatal(err)
	}
	if err := coord.SubmitBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	gmu.Lock()
	defer gmu.Unlock()
	if n == 0 {
		t.Error("no alerts delivered")
	}
}

// TestWorkerRejoinsOverTornOrphanJournal: a worker that dies mid-append
// before its first barrier leaves a journal with no snapshot whose last
// record is torn. Its replacement must trim that record, replay the rest,
// report the durable position and take the re-sent remainder — not fail the
// handshake on the torn bytes.
func TestWorkerRejoinsOverTornOrphanJournal(t *testing.T) {
	leakcheck.Check(t)
	events := conformance.Fleet(conformance.Epoch, 21, 8)
	cut := len(events) / 2
	src := groupedSum

	// The query arrives after the first half of the stream, so that half
	// (journaled, orphaned, replayed into an engine with no queries) raises
	// nothing and the reference sees only the rest.
	ref := saql.New()
	if _, err := ref.Register("grouped-sum", src); err != nil {
		t.Fatal(err)
	}
	var want []*saql.Alert
	for _, ev := range events[cut:] {
		want = append(want, ref.Process(ev)...)
	}
	want = append(want, ref.Flush()...)

	dir := t.TempDir()
	inproc := dist.NewInProc()
	inproc.Register("a", dist.WorkerConfig{Dir: dir, Shards: 2})
	var gmu sync.Mutex
	var got []*saql.Alert
	coord := dist.NewCoordinator(dist.Config{
		OnAlert: func(a *saql.Alert) { gmu.Lock(); got = append(got, a); gmu.Unlock() },
	})
	conn, err := inproc.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.AddWorker("a", conn, dist.SplitRanges(1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := coord.SubmitBatch(events[:cut]); err != nil {
		t.Fatal(err)
	}
	// One submission is one journal write: once the segment has bytes, the
	// whole batch is in it.
	seg := filepath.Join(dir, "events-000001.seg")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if fi, err := os.Stat(seg); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never journaled the batch")
		}
		time.Sleep(2 * time.Millisecond)
	}
	inproc.Worker("a").Kill()
	for len(coord.DeadWorkers()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("kill never observed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Kill closes the engine cleanly; a death mid-append does not. Unseal
	// the segment and cut its last record short.
	if err := os.Remove(filepath.Join(dir, "events-000001.idx")); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	if conn, err = inproc.Dial("a"); err != nil {
		t.Fatal(err)
	}
	if err := coord.ReplaceWorker("a", conn); err != nil {
		t.Fatalf("replacement over a torn orphan journal: %v", err)
	}
	if err := coord.Register("grouped-sum", src); err != nil {
		t.Fatal(err)
	}
	if err := coord.SubmitBatch(events[cut:]); err != nil {
		t.Fatal(err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if off := inproc.Worker("a").Offset(); off != int64(len(events)) {
		t.Errorf("worker ended at offset %d, want %d", off, len(events))
	}
	gmu.Lock()
	gotIDs := sortedClusterIdentities(got)
	gmu.Unlock()
	diffIdentitySets(t, "torn orphan journal", sortedClusterIdentities(want), gotIDs)
}
