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
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"saql"
	"saql/internal/conformance"
	"saql/internal/dist"
	"saql/internal/leakcheck"
)

var clusterStart = time.Date(2020, 2, 27, 9, 0, 0, 0, time.UTC)

// clusterWorkload mirrors the root package's concurrency workload: many
// process groups inside one long window, with p%7==0 groups noisy enough to
// alert, so every worker's key ranges own real work.
func clusterWorkload(procs, perProc int) []*saql.Event {
	var evs []*saql.Event
	for p := 0; p < procs; p++ {
		proc := saql.Process(fmt.Sprintf("worker-%03d.exe", p), int32(1000+p))
		for k := 0; k < perProc; k++ {
			amount := float64(100 + p*10 + k)
			if p%7 == 0 {
				amount += 1e6
			}
			evs = append(evs, &saql.Event{
				Time:    clusterStart.Add(time.Duration(p*perProc+k) * time.Millisecond),
				AgentID: "db-1",
				Subject: proc,
				Op:      saql.OpWrite,
				Object:  saql.NetConn("10.0.0.2", 1433, fmt.Sprintf("10.1.%d.%d", p/200, p%200), 443),
				Amount:  amount,
			})
		}
	}
	return evs
}

// clusterQueryNames covers every placement a cluster splits: by-group and
// by-event queries partitioned by key range, a pinned global aggregate, a
// pinned history ring, an invariant, and a pinned clustering query.
var clusterQueryNames = []string{
	"grouped-sum", "big-write", "global-volume", "ts-history", "inv-dsts", "outlier-amt",
}

func clusterVariant(t *testing.T, name string, k int) string {
	switch name {
	case "grouped-sum":
		return fmt.Sprintf(`proc p write ip i as e #time(1 h)
state ss { amt := sum(e.amount)
           n := count(e) } group by p
alert ss.amt > %d
return p, ss.amt, ss.n`, 1000000+k*1000)
	case "big-write":
		return fmt.Sprintf(`proc p write ip i as e
alert e.amount > %d
return p, e.amount`, 1000000+k*500)
	case "global-volume":
		return fmt.Sprintf(`proc p write ip i as e #time(1 h)
state ss { total := sum(e.amount) }
alert ss.total > %d
return ss.total`, 5000000+k*10000)
	case "ts-history":
		return fmt.Sprintf(`proc p write ip i as e #time(500 ms)
state[3] ss { amt := sum(e.amount) } group by p
alert ss[0].amt > ss[1].amt + %d && ss[0].amt > 100
return p, ss[0].amt, ss[1].amt`, 50+k*10)
	case "inv-dsts":
		return fmt.Sprintf(`proc p write ip i as e #time(600 ms)
state ss { dsts := set(i.dstip) } group by e.agentid
invariant[2] {
  known := empty_set
  known = known union ss.dsts
}
alert |ss.dsts diff known| >= %d
return ss.dsts`, 1-k%2)
	case "outlier-amt":
		return fmt.Sprintf(`proc p write ip i as e #time(700 ms)
state ss { amt := sum(e.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="ed", method="DBSCAN(%d, 3)")
alert cluster.outlier && ss.amt > 1000
return i.dstip, ss.amt`, 100000+k*5000)
	}
	t.Fatalf("unknown query %q", name)
	return ""
}

func conformanceSeed(t *testing.T) int64 {
	seed := time.Now().UnixNano()
	if s := os.Getenv("SAQL_CONFORMANCE_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SAQL_CONFORMANCE_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("conformance seed = %d (set SAQL_CONFORMANCE_SEED=%d to reproduce)", seed, seed)
	return seed
}

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

// scriptStep is one shared step: both the serial reference and the cluster
// apply it; fault injections are cluster-only.
type scriptStep struct {
	op    string // submit | pause | resume | update
	block int
	name  string
	src   string
	carry bool
}

// clusterFault is one cluster-only action injected AFTER a script step.
type clusterFault struct {
	kind   string // kill | replace | migrate | barrier
	worker int    // kill
	from   int    // migrate
	to     int    // migrate
}

// TestClusterMatchesSerial is the distributed recovery-equivalence hammer
// (the PR's acceptance test). Three in-process workers — each a real
// engine journaling and checkpointing its own directory — run a randomized
// queryset-lifecycle script against a randomized fault plan with at least
// one worker kill (with mid-epoch events before the replacement arrives)
// and at least one live key-range migration. The delivered alert multiset
// must equal the uninterrupted serial run's, alert for alert.
func TestClusterMatchesSerial(t *testing.T) {
	leakcheck.Check(t)
	clusterMatchesSerial(t, conformanceSeed(t), clusterWorkload(96, 25), true)
}

// TestClusterMatchesSerialDisordered runs the same hammer — kills,
// replacements, barriers and migrations included — over a disordered stream
// (conformance.Disorder: late by up to three windows, one host's clock
// jumping back), with no queryset control operations.
func TestClusterMatchesSerialDisordered(t *testing.T) {
	leakcheck.Check(t)
	seed := conformanceSeed(t)
	events := conformance.Disorder{Seed: seed, Start: clusterStart, Events: 2400, Window: time.Second, Late: 3, Jump: 4 * time.Second}.Stream()
	clusterMatchesSerial(t, seed, events, false)
}

// clusterMatchesSerial is the hammer: events in 24 blocks, with queryset
// control operations between them when controls is set.
func clusterMatchesSerial(t *testing.T, seed int64, events []*saql.Event, controls bool) {
	rng := rand.New(rand.NewSource(seed))

	const workers, blocks = 3, 24
	blockSize := len(events) / blocks

	// Shared script: event blocks interleaved with queryset control ops.
	var script []scriptStep
	paused := map[string]bool{}
	version := map[string]int{}
	for b := 0; b < blocks; b++ {
		script = append(script, scriptStep{op: "submit", block: b})
		for i := 0; controls && i < 1+rng.Intn(2); i++ {
			name := clusterQueryNames[rng.Intn(len(clusterQueryNames))]
			switch rng.Intn(3) {
			case 0:
				if paused[name] {
					script = append(script, scriptStep{op: "resume", name: name})
					paused[name] = false
				} else {
					script = append(script, scriptStep{op: "pause", name: name})
					paused[name] = true
				}
			case 1:
				version[name]++
				carry := name != "big-write" && rng.Intn(2) == 0
				script = append(script, scriptStep{op: "update", name: name, src: clusterVariant(t, name, version[name]), carry: carry})
			case 2:
				// Spacing no-op.
			}
		}
	}

	// Cluster-only fault plan, keyed by script-step index. One kill (left
	// dead across at least the following submit, so the replacement needs
	// the retained epoch) and one migration are guaranteed; extras are
	// random. Kills land only after submit steps so death interrupts the
	// event stream, never a half-acked control op.
	var submitSteps []int
	for i, st := range script {
		if st.op == "submit" {
			submitSteps = append(submitSteps, i)
		}
	}
	faults := map[int][]clusterFault{}
	addFault := func(step int, f clusterFault) { faults[step] = append(faults[step], f) }
	mustKill := submitSteps[len(submitSteps)/4+rng.Intn(len(submitSteps)/4)]
	addFault(mustKill, clusterFault{kind: "kill", worker: rng.Intn(workers)})
	mustMigrate := submitSteps[len(submitSteps)/2+rng.Intn(len(submitSteps)/4)]
	from := rng.Intn(workers)
	addFault(mustMigrate, clusterFault{kind: "migrate", from: from, to: (from + 1 + rng.Intn(workers-1)) % workers})
	for _, step := range submitSteps {
		if len(faults[step]) > 0 {
			continue
		}
		switch rng.Intn(10) {
		case 0:
			addFault(step, clusterFault{kind: "kill", worker: rng.Intn(workers)})
		case 1:
			f := rng.Intn(workers)
			addFault(step, clusterFault{kind: "migrate", from: f, to: (f + 1 + rng.Intn(workers-1)) % workers})
		case 2:
			addFault(step, clusterFault{kind: "barrier"})
		case 3:
			addFault(step, clusterFault{kind: "replace"})
		}
	}
	t.Logf("script: %d steps, guaranteed kill after step %d, guaranteed migration after step %d, %d fault points",
		len(script), mustKill, mustMigrate, len(faults))

	register := func(eng *saql.Engine) error {
		for _, name := range clusterQueryNames {
			if _, err := eng.Register(name, clusterVariant(t, name, 0)); err != nil {
				return err
			}
		}
		return nil
	}

	// Uninterrupted serial reference.
	ref := saql.New()
	if err := register(ref); err != nil {
		t.Fatal(err)
	}
	var want []*saql.Alert
	for _, st := range script {
		switch st.op {
		case "submit":
			lo, hi := st.block*blockSize, (st.block+1)*blockSize
			if st.block == blocks-1 {
				hi = len(events)
			}
			for _, ev := range events[lo:hi] {
				want = append(want, ref.Process(ev)...)
			}
		case "pause", "resume":
			h, ok := ref.Query(st.name)
			if !ok {
				t.Fatalf("no handle for %q", st.name)
			}
			var err error
			if st.op == "pause" {
				err = h.Pause()
			} else {
				err = h.Resume()
			}
			if err != nil {
				t.Fatalf("%s %s: %v", st.op, st.name, err)
			}
		case "update":
			h, ok := ref.Query(st.name)
			if !ok {
				t.Fatalf("no handle for %q", st.name)
			}
			var opts []saql.UpdateOption
			if st.carry {
				opts = append(opts, saql.CarryWindowState())
			}
			if err := h.Update(st.src, opts...); err != nil {
				t.Fatalf("update %s: %v", st.name, err)
			}
		}
	}
	want = append(want, ref.Flush()...)
	if len(want) == 0 {
		t.Fatal("serial reference produced no alerts")
	}
	wantIDs := sortedClusterIdentities(want)

	// The cluster. Workers run in-process over synchronous pipes; each has
	// its own journal/checkpoint directory — a kill leaves the directory
	// behind for the replacement.
	ids := make([]string, workers)
	dirs := make([]string, workers)
	live := make([]*dist.Worker, workers)
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
	ranges := dist.SplitRanges(workers)
	for i := range ids {
		if err := coord.AddWorker(ids[i], spawn(i), ranges[i]); err != nil {
			t.Fatalf("AddWorker(%s): %v", ids[i], err)
		}
	}
	for _, name := range clusterQueryNames {
		if err := coord.Register(name, clusterVariant(t, name, 0)); err != nil {
			t.Fatalf("Register(%s): %v", name, err)
		}
	}

	// Fault-plan driver state: at most one worker dead at a time, replaced
	// lazily so the epoch-catch-up path is exercised, but always before the
	// next control op or fault that needs full membership.
	pendingDead := -1
	waitDead := func(i int) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			for _, id := range coord.DeadWorkers() {
				if id == ids[i] {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %s never marked dead", ids[i])
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	replacePending := func() {
		if pendingDead < 0 {
			return
		}
		i := pendingDead
		pendingDead = -1
		waitDead(i)
		if err := coord.ReplaceWorker(ids[i], spawn(i)); err != nil {
			t.Fatalf("ReplaceWorker(%s): %v", ids[i], err)
		}
	}
	kills, migrations := 0, 0
	runFault := func(f clusterFault) {
		switch f.kind {
		case "kill":
			replacePending() // one dead worker at a time
			live[f.worker].Kill()
			waitDead(f.worker)
			pendingDead = f.worker
			kills++
		case "replace":
			replacePending()
		case "barrier":
			replacePending()
			if err := coord.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		case "migrate":
			replacePending()
			fromID, toID := ids[f.from], ids[f.to]
			rs := coord.Workers()[fromID]
			if len(rs) == 0 {
				t.Fatalf("worker %s owns no ranges", fromID)
			}
			// Move the upper half of the source's widest range.
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
			mig := []saql.KeyRange{{Lo: mid + 1, Hi: widest.Hi}}
			if err := coord.Migrate(fromID, toID, mig); err != nil {
				t.Fatalf("migrate %s->%s %v: %v", fromID, toID, mig, err)
			}
			migrations++
		}
	}

	for i, st := range script {
		switch st.op {
		case "submit":
			lo, hi := st.block*blockSize, (st.block+1)*blockSize
			if st.block == blocks-1 {
				hi = len(events)
			}
			if err := coord.SubmitBatch(events[lo:hi]); err != nil {
				t.Fatal(err)
			}
		case "pause":
			replacePending()
			if err := coord.Pause(st.name); err != nil {
				t.Fatalf("pause %s: %v", st.name, err)
			}
		case "resume":
			replacePending()
			if err := coord.Resume(st.name); err != nil {
				t.Fatalf("resume %s: %v", st.name, err)
			}
		case "update":
			replacePending()
			if err := coord.Update(st.name, st.src, st.carry); err != nil {
				t.Fatalf("update %s: %v", st.name, err)
			}
		}
		for _, f := range faults[i] {
			runFault(f)
		}
	}
	replacePending()
	if err := coord.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if kills == 0 || migrations == 0 {
		t.Fatalf("fault plan executed %d kills and %d migrations; both must be >= 1", kills, migrations)
	}
	t.Logf("fault plan executed: %d kills, %d migrations", kills, migrations)

	gmu.Lock()
	gotIDs := sortedClusterIdentities(got)
	gmu.Unlock()
	diffIdentitySets(t, fmt.Sprintf("seed %d", seed), wantIDs, gotIDs)
}

// TestClusterOverTCP is the wire smoke test: the same coordinator/worker
// stack over real TCP sockets — two saql-worker-equivalent loops behind a
// listener — must match serial on a plain run with a barrier in the middle.
func TestClusterOverTCP(t *testing.T) {
	leakcheck.Check(t)
	const workers = 2
	events := clusterWorkload(28, 10)
	src := clusterVariant(t, "grouped-sum", 0)

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
	events := clusterWorkload(21, 8)
	src := clusterVariant(t, "grouped-sum", 0)

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
	events := clusterWorkload(14, 6)
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
	if err := coord.Register("grouped-sum", clusterVariant(t, "grouped-sum", 0)); err != nil {
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
	events := clusterWorkload(21, 8)
	cut := len(events) / 2
	src := clusterVariant(t, "grouped-sum", 0)

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
