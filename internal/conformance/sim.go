package conformance

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"

	"saql/internal/event"
)

// Seed is one seed of a suite, labelled for its subtest: "seed=N" for a
// fixed one, "seed=fresh" for the run's time-derived one, so test names do
// not vary from run to run.
type Seed struct {
	Label string
	Value int64
}

// Seeds returns the fixed seeds, then one derived from the time and logged.
// SAQL_CONFORMANCE_SEED replaces that fresh seed, so a failure under it is
// reproduced by its subtest seed=fresh.
func Seeds(t testing.TB, fixed ...int64) []Seed {
	t.Helper()
	fresh := time.Now().UnixNano()
	if s := os.Getenv("SAQL_CONFORMANCE_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SAQL_CONFORMANCE_SEED %q: %v", s, err)
		}
		fresh = v
	}
	t.Logf("fresh seed = %d (set SAQL_CONFORMANCE_SEED=%d to reproduce)", fresh, fresh)
	seeds := make([]Seed, 0, len(fixed)+1)
	for _, s := range fixed {
		seeds = append(seeds, Seed{fmt.Sprintf("seed=%d", s), s})
	}
	return append(seeds, Seed{"seed=fresh", fresh})
}

// shapes are the simulation's query shapes: %[1]s is the window, %[2]d the
// alert threshold.
var shapes = map[string]string{
	// By-group, keyed by the subject process.
	"sum-by-p": `proc p write ip i as e #time(%[1]s)
state ss { amt := sum(e.amount) } group by p
alert ss.amt > %[2]d
return p, ss.amt`,
	"sum-count-by-p": `proc p write ip i as e #time(%[1]s)
state ss { amt := sum(e.amount)
           n := count(e) } group by p
alert ss.amt > %[2]d
return p, ss.amt, ss.n`,
	"count-sum-by-p": `proc p write ip i as e #time(%[1]s)
state ss { n := count(e)
           amt := sum(e.amount) } group by p
alert ss.n > %[2]d
return p, ss.n, ss.amt`,
	"history": `proc p write ip i as e #time(%[1]s)
state[3] ss { amt := sum(e.amount) } group by p
alert ss[0].amt > ss[1].amt + %[2]d && ss[0].amt > 100
return p, ss[0].amt, ss[1].amt`,
	// By-group, keyed by the destination: another key class.
	"sum-by-dst": `proc p write ip i as e #time(%[1]s)
state ss { amt := sum(e.amount) } group by i.dstip
alert ss.amt > %[2]d
return i.dstip, ss.amt`,
	// Pinned: no group-by, a clustering over every group, an invariant
	// trained on the agent's windows.
	"total": `proc p write ip i as e #time(%[1]s)
state ss { total := sum(e.amount) }
alert ss.total > %[2]d
return ss.total`,
	"reads": `proc p read file f as e #time(%[1]s)
state ss { n := count(e) }
alert ss.n > %[2]d
return ss.n`,
	"outlier": `proc p write ip i as e #time(%[1]s)
state ss { amt := sum(e.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="ed", method="DBSCAN(%[2]d, 3)")
alert cluster.outlier && ss.amt > 1000
return i.dstip, ss.amt`,
	// Grouped by agent id so the group recurs in every window: training
	// completes mid-stream and detection windows straddle control points.
	"invariant": `proc p write ip i as e #time(%[1]s)
state ss { dsts := set(i.dstip) } group by e.agentid
invariant[2] {
  known := empty_set
  known = known union ss.dsts
}
alert |ss.dsts diff known| >= %[2]d
return ss.dsts`,
	// By-event rules: no window.
	"big-write": `proc p write ip i as e
alert e.amount > %[2]d
return p, e.amount`,
	"big-start": `proc p start proc c as e
alert e.amount > %[2]d
return p, c`,
}

// Src is the source of a shape at a window ("10 s", "3 s, 1 s"; ignored by
// a rule) and an alert threshold.
func Src(shape, window string, th int) string {
	src, ok := shapes[shape]
	if !ok {
		panic("unknown query shape " + shape)
	}
	return fmt.Sprintf(src, window, th)
}

// Family is a query of the generated scripts: a shape at one window whose
// k-th variant has the threshold Base + k*Step, or, if it alternates,
// Base + (k%2)*Step. Variants differ in nothing else, so a carrying Update
// between any two stays legal.
type Family struct {
	Name, Shape, Window string
	Base, Step          int
	Alternate           bool
}

// Src is the family's k-th variant.
func (f Family) Src(k int) string {
	if f.Alternate {
		k %= 2
	}
	return Src(f.Shape, f.Window, f.Base+k*f.Step)
}

// A Stream is what a generated simulation runs: its events, derived from the
// seed, and the families calibrated to them. The last two families start
// unregistered, so the script registers them mid-stream.
type Stream struct {
	Events   func(seed int64) []*event.Event
	Families []Family
}

var (
	// Ordered is the fleet in time order, Fleet(Epoch, 96, 25): 2.4 s of
	// stream inside every hour window, with every placement — by-group in
	// three key classes, pinned, by-event — a history ring, an invariant, a
	// clustering and a variant set of three sub-second windows whose slice
	// logs hold hits wherever a control point lands.
	Ordered = Stream{
		Events: func(int64) []*event.Event { return Fleet(Epoch, 96, 25) },
		Families: []Family{
			{"grouped-sum", "sum-count-by-p", "1 h", 1000000, 1000, false},
			{"global-volume", "total", "1 h", 5000000, 10000, false},
			{"ts-history", "history", "500 ms", 50, 10, false},
			{"inv-dsts", "invariant", "600 ms", 1, -1, true},
			{"win-300", "sum-by-p", "300 ms", 2000, 100, false},
			{"win-400", "sum-by-p", "400 ms", 2000, 100, false},
			{"win-700", "sum-by-p", "700 ms", 2000, 100, false},
			{"big-write", "big-write", "", 1000000, 500, false},
			{"outlier-amt", "outlier", "700 ms", 100000, 5000, false},
		},
	}
	// Disordered is Disorder's stream at one-second windows, late by up to
	// three of them, the last host's clock jumping back four seconds, with a
	// variant set of two window lengths, a hopping window, a global
	// aggregate, a history ring, a rule and a clustering.
	Disordered = Stream{
		Events: func(seed int64) []*event.Event {
			return Disorder{Seed: seed, Start: Epoch, Events: 2400, Window: time.Second, Late: 3, Jump: 4 * time.Second}.Stream()
		},
		Families: []Family{
			{"count-1s", "count-sum-by-p", "1 s", 2, 1, true},
			{"count-2s", "count-sum-by-p", "2 s", 2, 1, true},
			{"hop-dst", "sum-by-dst", "3 s, 1 s", 50000, 1000, false},
			{"global", "total", "2 s", 100000, 1000, false},
			{"hist", "history", "1 s", 500, 50, false},
			{"big-write", "big-write", "", 100000, 100, false},
			{"outlier-dst", "outlier", "2 s", 20000, 1000, false},
		},
	}
)

// Op is what a step does.
type Op string

// The step operations. Kill, Replace, Migrate and Barrier are cluster faults:
// a runner of one engine ignores them.
const (
	Submit     Op = "submit"     // the events [From, To)
	Pause      Op = "pause"      // query Name
	Resume     Op = "resume"     // query Name
	Update     Op = "update"     // query Name to Src, carrying window state if Carry
	Register   Op = "register"   // query Name, Src
	Remove     Op = "remove"     // query Name
	Checkpoint Op = "checkpoint" // a snapshot of the journaled engine
	Crash      Op = "crash"      // the engine dies and is restored from the last checkpoint
	Stats      Op = "stats"      // read every query's counters
	Flush      Op = "flush"      // close every open window mid-stream
	Start      Op = "start"      // a started configuration starts here, processing serially before
	Kill       Op = "kill"       // worker From dies
	Replace    Op = "replace"    // a dead worker is replaced
	Migrate    Op = "migrate"    // part of worker From's key ranges move to worker To
	Barrier    Op = "barrier"    // a cluster-wide checkpoint
)

// Step is one step of a script.
type Step struct {
	Op       Op
	From, To int
	Name     string
	Src      string
	Carry    bool
}

// Query is a query registered before a script's first step.
type Query struct{ Name, Src string }

// Sim is one simulation: a stream, the queries registered over it, in order,
// and the script every configuration plays. Seed drives what a runner
// chooses on its own, such as sub-batch sizes.
type Sim struct {
	Seed    int64
	Events  []*event.Event
	Queries []Query
	Script  []Step
}

// Workers is the number of cluster workers the fault plans address.
const Workers = 3

// NewSim derives a simulation from seed over a stream, cut into 24 blocks.
// After each block come one or two operations on random families: pause or
// resume, an Update (fresh, or carrying state for a windowed family), a
// remove, a stats read, or Register of a family not registered, a removed
// one included. And after those a cluster fault may land, so that a killed
// worker stays dead across the next block's submit: one kill in the second
// quarter and one migration in the third are certain, and any other block
// takes a kill, a replacement, a migration or a barrier one time in ten each.
func NewSim(seed int64, s Stream) *Sim {
	const blocks, joining = 24, 2
	rng := rand.New(rand.NewSource(seed))
	sim := &Sim{Seed: seed, Events: s.Events(seed)}
	live, paused, version := map[string]bool{}, map[string]bool{}, map[string]int{}
	for _, f := range s.Families[:len(s.Families)-joining] {
		sim.Queries = append(sim.Queries, Query{f.Name, f.Src(0)})
		live[f.Name] = true
	}
	kill, migrate := blocks/4+rng.Intn(blocks/4), blocks/2+rng.Intn(blocks/4)
	other := func(w int) int { return (w + 1 + rng.Intn(Workers-1)) % Workers }
	size := len(sim.Events) / blocks
	for b := 0; b < blocks; b++ {
		to := (b + 1) * size
		if b == blocks-1 {
			to = len(sim.Events)
		}
		sim.add(Step{Op: Submit, From: b * size, To: to})
		var fault []Step
		switch r := rng.Intn(10); {
		case b == kill || b != migrate && r == 0:
			fault = []Step{{Op: Kill, From: rng.Intn(Workers)}}
		case b == migrate || r == 1:
			w := rng.Intn(Workers)
			fault = []Step{{Op: Migrate, From: w, To: other(w)}}
		case r == 2:
			fault = []Step{{Op: Barrier}}
		case r == 3:
			fault = []Step{{Op: Replace}}
		}
		for i := 0; i < 1+rng.Intn(2); i++ {
			f := s.Families[rng.Intn(len(s.Families))]
			if !live[f.Name] {
				version[f.Name]++
				sim.add(Step{Op: Register, Name: f.Name, Src: f.Src(version[f.Name])})
				live[f.Name], paused[f.Name] = true, false
				continue
			}
			switch rng.Intn(5) {
			case 0:
				op := Pause
				if paused[f.Name] {
					op = Resume
				}
				sim.add(Step{Op: op, Name: f.Name})
				paused[f.Name] = !paused[f.Name]
			case 1:
				version[f.Name]++
				carry := f.Window != "" && rng.Intn(2) == 0
				sim.add(Step{Op: Update, Name: f.Name, Src: f.Src(version[f.Name]), Carry: carry})
			case 2:
				sim.add(Step{Op: Remove, Name: f.Name})
				live[f.Name] = false
			case 3:
				sim.add(Step{Op: Stats})
			}
		}
		sim.Script = append(sim.Script, fault...)
	}
	return sim
}

func (s *Sim) add(st Step) { s.Script = append(s.Script, st) }

// Barriers picks n checkpoint and crash points from the seed, as step
// indexes for WithCrash: a checkpoint before a step of the script's middle
// half, three times in four before a resume, register or update — where a
// restored engine that lost the stream's time would let the next stragglers
// in — and a crash before a later step or at the end.
func (s *Sim) Barriers(n int) [][2]int {
	rng := rand.New(rand.NewSource(s.Seed ^ 0x5eed))
	var joins []int
	for i := len(s.Script) / 4; i < 3*len(s.Script)/4; i++ {
		if op := s.Script[i].Op; op == Resume || op == Register || op == Update {
			joins = append(joins, i)
		}
	}
	out := make([][2]int, n)
	for i := range out {
		cp := len(s.Script)/4 + rng.Intn(len(s.Script)/2)
		if len(joins) > 0 && rng.Intn(4) > 0 {
			cp = joins[rng.Intn(len(joins))]
		}
		out[i] = [2]int{cp, cp + rng.Intn(len(s.Script)-cp+1)}
	}
	return out
}

// WithCrash is the simulation with a checkpoint before step cp and a crash
// before step kill, cp <= kill <= len(Script).
func (s *Sim) WithCrash(cp, kill int) *Sim {
	c := *s
	c.Script = slices.Concat(s.Script[:cp], []Step{{Op: Checkpoint}}, s.Script[cp:kill], []Step{{Op: Crash}}, s.Script[kill:])
	return &c
}

// Run plays the script through do, step by step. After a Crash the script
// goes on from the step after the last Checkpoint before it, which the
// restored engine has not seen; the Crash itself is played once.
func (s *Sim) Run(do func(Step)) {
	cp, crashed := -1, map[int]bool{}
	for i := 0; i < len(s.Script); i++ {
		st := s.Script[i]
		if st.Op == Crash && crashed[i] {
			continue
		}
		do(st)
		switch st.Op {
		case Checkpoint:
			cp = i
		case Crash:
			crashed[i] = true
			i = cp
		}
	}
}
