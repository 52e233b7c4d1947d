package saql

// The root package's runner of conformance.Sim: one script, played on a
// never-started engine (Process and Flush: the contract's reference) or on
// one started at some shard count, journaled whenever the script
// checkpoints, restored after each crash. Every started configuration must
// raise the reference's alerts and read its counters.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"saql/internal/conformance"
)

// simRun is what one run of a script saw: the sorted alert identities, every
// query's counters at each stats step, and at the end.
type simRun struct {
	alerts []string
	stats  []map[string]QueryStats
	final  map[string]QueryStats
}

// lateHits is the late hits the run's queries counted.
func (r simRun) lateHits() int64 {
	var n int64
	for _, st := range r.final {
		n += st.LateHits
	}
	return n
}

// runSim plays sim on a serial engine (shards 0) or a started one. A started
// engine starts before the first step, or at the script's start step, with
// the steps before it processed serially; it takes each submit block in
// sub-batches of 1 to 48 events cut by the seed. A checkpoint's offset must
// be the events submitted before it, and a crash closes the engine, drops
// what it raised after the checkpoint and restores it from there, onto the
// same shard count.
func runSim(t *testing.T, sim *conformance.Sim, shards int) simRun {
	t.Helper()
	var (
		mu     sync.Mutex
		alerts []*Alert
		mark   int // the alerts raised before the last checkpoint
		reads  int // the stats steps before it
		run    simRun
	)
	opts := []Option{WithAlertHandler(func(a *Alert) {
		mu.Lock()
		alerts = append(alerts, a)
		mu.Unlock()
	})}
	if shards > 0 {
		opts = append(opts, WithShards(shards), WithIngestQueue(64))
	}
	dir, journal := "", opts
	if slices.ContainsFunc(sim.Script, func(st conformance.Step) bool { return st.Op == conformance.Checkpoint }) {
		dir = t.TempDir()
		store, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		journal = append(slices.Clip(opts), WithJournal(store))
	}
	eng := New(journal...)
	for _, q := range sim.Queries {
		if _, err := eng.Register(q.Name, q.Src); err != nil {
			t.Fatalf("register %s: %v", q.Name, err)
		}
	}
	started := false
	start := func() {
		if shards > 0 && !started {
			if err := eng.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			started = true
		}
	}
	if !slices.ContainsFunc(sim.Script, func(st conformance.Step) bool { return st.Op == conformance.Start }) {
		start()
	}
	chop := rand.New(rand.NewSource(sim.Seed + int64(shards)*1000003))
	var offset, cpOffset int64
	sim.Run(func(st conformance.Step) {
		var err error
		switch st.Op {
		case conformance.Submit:
			for lo := st.From; lo < st.To && err == nil; {
				hi := st.To
				if started {
					hi = min(hi, lo+1+chop.Intn(48))
					err = eng.SubmitBatch(sim.Events[lo:hi])
				} else {
					for _, ev := range sim.Events[lo:hi] {
						eng.Process(ev)
					}
				}
				lo = hi
			}
			offset += int64(st.To - st.From)
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
				var carry []UpdateOption
				if st.Carry {
					carry = append(carry, CarryWindowState())
				}
				err = h.Update(st.Src, carry...)
			}
		case conformance.Register:
			_, err = eng.Register(st.Name, st.Src)
		case conformance.Stats:
			run.stats = append(run.stats, simStats(t, eng))
			if len(eng.Tenants()) == 0 {
				t.Fatal("no tenant stats")
			}
		case conformance.Flush:
			eng.Flush()
		case conformance.Start:
			start()
		case conformance.Checkpoint:
			var info *CheckpointInfo
			if info, err = eng.Checkpoint(dir); err == nil && info.Offset != offset {
				t.Errorf("checkpoint offset %d, want the %d events submitted", info.Offset, offset)
			}
			mu.Lock()
			mark = len(alerts) // the barrier delivered everything raised before it
			mu.Unlock()
			reads, cpOffset = len(run.stats), offset
		case conformance.Crash:
			if err = eng.Close(); err != nil {
				break
			}
			restore := []RestoreOption{WithoutReplay(), WithRestoreEngineOptions(opts...)}
			if !started {
				restore = append(restore, WithoutStart())
			}
			var info *RestoreInfo
			if eng, info, err = Restore(dir, restore...); err == nil && info.Offset != cpOffset {
				t.Errorf("restore offset %d, want the checkpoint's %d", info.Offset, cpOffset)
			}
			mu.Lock()
			alerts = alerts[:mark] // the dead engine's output dies with it
			mu.Unlock()
			run.stats, offset = run.stats[:reads], cpOffset
		case conformance.Kill, conformance.Replace, conformance.Migrate, conformance.Barrier:
			// Cluster faults: one engine has no workers to fail.
		default:
			t.Fatalf("no runner for step %q", st.Op)
		}
		if err != nil {
			t.Fatalf("%s %s: %v", st.Op, st.Name, err)
		}
	})
	run.final = simStats(t, eng)
	if !started {
		eng.Flush()
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if errs := eng.Errors(); len(errs) != 0 {
		t.Fatalf("runtime reported errors: %v", errs)
	}
	mu.Lock()
	defer mu.Unlock()
	run.alerts = make([]string, len(alerts))
	for i, a := range alerts {
		run.alerts[i] = alertIdentity(a)
	}
	sort.Strings(run.alerts)
	return run
}

// simStats reads every registered query's counters.
func simStats(t *testing.T, eng *Engine) map[string]QueryStats {
	t.Helper()
	out := map[string]QueryStats{}
	for _, h := range eng.Queries() {
		st, err := h.Stats()
		if err != nil {
			t.Fatal(err)
		}
		out[h.Name()] = st
	}
	return out
}

// compareSim fails unless got raised the reference's alerts and read its
// counters at every stats step and at the end. StateBytes is left out: a
// started engine sums its replicas' encodings, a header per extra replica,
// the meter gap of ROADMAP item 2.
func compareSim(t *testing.T, got, want simRun) {
	t.Helper()
	if !slices.Equal(got.alerts, want.alerts) {
		diffAlertSets(t, "against serial", want.alerts, got.alerts)
	}
	gs, ws := append(slices.Clip(got.stats), got.final), append(slices.Clip(want.stats), want.final)
	if len(gs) != len(ws) {
		t.Fatalf("%d stats steps, serial %d", len(gs)-1, len(ws)-1)
	}
	for i, ref := range ws {
		st := gs[i]
		if len(st) != len(ref) {
			t.Errorf("stats step %d: %d queries, serial %d", i, len(st), len(ref))
		}
		for name, w := range ref {
			g := st[name]
			g.StateBytes, w.StateBytes = 0, 0
			if g != w {
				t.Errorf("stats step %d: %s %+v, serial %+v", i, name, g, w)
			}
		}
	}
}

// simConfig is a named configuration of the runner: the simulation a seed
// gives, the shard counts it runs at (0: serial, then journaled), how many
// checkpoint → crash → restore points it tries per seed, the suite's fixed
// seeds besides the fresh one, and what a serial run must show to test
// anything beyond raising an alert: late hits on a stream that holds
// stragglers, and a number of queries alerting.
type simConfig struct {
	sim        func(seed int64) *conformance.Sim
	shards     []int
	barriers   int
	seeds      []int64
	stragglers bool
	alerting   int
}

// generated is the simulations conformance.NewSim derives over stream.
func generated(stream conformance.Stream) func(seed int64) *conformance.Sim {
	return func(seed int64) *conformance.Sim { return conformance.NewSim(seed, stream) }
}

// run holds every configuration to the serial reference of its seed. Its
// subtests are shards=N[/barrier=B]/seed=S.
func (c simConfig) run(t *testing.T) {
	seeds := conformance.Seeds(t, c.seeds...)
	sims := make([]*conformance.Sim, len(seeds))
	refs := make([]simRun, len(seeds))
	for i, s := range seeds {
		sims[i] = c.sim(s.Value)
		refs[i] = runSim(t, sims[i], 0)
		alerting := map[string]bool{}
		for _, id := range refs[i].alerts {
			alerting[strings.Split(id, "|")[1]] = true
		}
		late := refs[i].lateHits()
		t.Logf("%s: %d steps, %d alerts from %d queries, %d late hits", s.Label, len(sims[i].Script), len(refs[i].alerts), len(alerting), late)
		if len(alerting) == 0 || len(alerting) < c.alerting || c.stragglers && late == 0 {
			t.Fatalf("%s: the serial run raised alerts from %d queries and counted %d late hits: the script tests too little", s.Label, len(alerting), late)
		}
	}
	for _, n := range c.shards {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			if c.barriers == 0 {
				for i, s := range seeds {
					t.Run(s.Label, func(t *testing.T) { compareSim(t, runSim(t, sims[i], n), refs[i]) })
				}
				return
			}
			for b := range c.barriers {
				t.Run(fmt.Sprintf("barrier=%d", b), func(t *testing.T) {
					for i, s := range seeds {
						t.Run(s.Label, func(t *testing.T) {
							at := sims[i].Barriers(c.barriers)[b]
							t.Logf("checkpoint before step %d, crash before step %d", at[0], at[1])
							compareSim(t, runSim(t, sims[i].WithCrash(at[0], at[1]), n), refs[i])
						})
					}
				})
			}
		})
	}
}

// TestLifecycleHammerMatchesSerial: over the ordered fleet, pause, resume,
// Update (fresh and carrying), remove and Register between event blocks, at
// 1, 2, 8 and 96 shards. Control operations ride the ingest queue in total
// order, so they land at the same stream point everywhere, and the
// partitioned router's per-shard buffers sit in assorted partial-fill states
// whenever one forces a flush. Events offered agree too: a paused span
// counts for nothing, a fresh Update restarts the count and a carrying one
// keeps it.
func TestLifecycleHammerMatchesSerial(t *testing.T) {
	simConfig{sim: generated(conformance.Ordered), shards: []int{1, 2, 8, 96}, seeds: []int64{7}}.run(t)
}

// TestCheckpointRestoreMatchesUninterrupted: the same scripts on a journaled
// engine at 1, 2 and 8 shards, checkpointed before a step and killed before a
// later one, restored onto the same shard count and re-driven from the
// checkpoint: no lost, duplicated or reordered detection, and every counter
// resumes rather than restarts.
func TestCheckpointRestoreMatchesUninterrupted(t *testing.T) {
	simConfig{sim: generated(conformance.Ordered), shards: []int{1, 2, 8}, barriers: 3}.run(t)
}

// TestDisorderedLifecycleHammer: the lifecycle hammer over the disordered
// stream, late by up to three windows with one host's clock jumping back;
// LateHits must read the serial ones.
func TestDisorderedLifecycleHammer(t *testing.T) {
	simConfig{sim: generated(conformance.Disordered), shards: []int{1, 2, 8}, stragglers: true}.run(t)
}

// TestDisorderedRecoveryHammer: the recovery hammer over the disordered
// stream, serial and started. The restored engine takes the stream watermark
// from the journal prefix the snapshot covers.
func TestDisorderedRecoveryHammer(t *testing.T) {
	simConfig{sim: generated(conformance.Disordered), shards: []int{0, 1, 2, 8}, barriers: 3, stragglers: true}.run(t)
}
