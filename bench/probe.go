package main

import (
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	"saql"
)

// The sandbox is a VM whose cores are shared with neighbours: each core runs
// either at its undisturbed speed or at about 0.55 of it, switching every few
// milliseconds to every few minutes, and whole runs pass in the slow state.
// No statistic over wall times alone reads through that. So every rep is cut
// into probeSlices slices, and between slices — with the engine idle — the
// benchmark times a fixed kernel of its own (none of the engine's code, so a
// faster engine does not make it faster). The kernel is compute-bound and
// feels a busy neighbour more than the engine does: over 500 reps of the four
// workloads, CPU-bound rep times (closed loop, serial baseline, set-up) moved
// as the kernel's time to the power 0.55 to 0.9, and the open loop's median
// latency, which is mostly hand-offs between goroutines, to the power 0.05
// to 0.5 (and more once a core falls below 0.4 of its speed, where nothing
// corrects it). So a rep's machine speed is (nominalProbe ÷ its mean kernel
// time)^cpuBound, or ^handOffs for the latency, and every timing the rep
// reports is scaled to speed 1: a time is multiplied by the speed, a rate
// divided by it.
const (
	probeSlices = 32
	// nominalProbe is the kernel's time on one undisturbed core of the 2-core
	// sandbox this was written on. It only fixes the scale: on another machine
	// every value moves by the same factor.
	nominalProbe = 4700 * time.Microsecond
	cpuBound     = 0.75
	handOffs     = 0.5
)

// sliceEnd reports whether a batch ending at event j (which began at event
// i) of n completes one of the probeSlices slices, the last excluded.
func sliceEnd(i, j, n int) bool {
	return j < n && i*probeSlices/n != j*probeSlices/n
}

// probe is the kernel: string hashing, map probes, integer formatting and a
// small allocation per step — what the engine spends its time on, so a busy
// neighbour slows the two by about the same factor. (A memory-walk kernel
// was tried too and dropped: its time moves by 4x with the neighbours' cache
// traffic, which the engine hardly feels.)
type probe struct {
	keys  []string
	index map[string]int
	steps int
}

// probeSteps is the kernel's length: nominalProbe goes with it.
const probeSteps = 100000

func newProbe(steps int) *probe {
	p := &probe{index: map[string]int{}, steps: steps}
	for i := range 4096 {
		k := "proc-" + strconv.Itoa(i*7919) + ".exe"
		p.keys = append(p.keys, k)
		p.index[k] = i
	}
	return p
}

func (p *probe) kernel() uint64 {
	var s uint64
	for i := range p.steps {
		k := p.keys[(i*31)&4095]
		s += uint64(p.index[k] + len(strconv.AppendInt(nil, int64(i), 10)))
	}
	return s
}

var probeSink uint64 // keeps the kernel's result alive

// speedMeter takes one rep's speed samples. A nil meter takes none.
type speedMeter struct {
	p     *probe
	procs int // goroutines a sample runs the kernel on at once
	tr    *tracer
	spent time.Duration // wall time inside samples: not on the rep's clock
	total time.Duration // the samples' kernel times, each a mean across procs
	n     int
}

// meter returns a fresh meter for one rep. The single-threaded baseline
// probes the one core it runs on; everything else probes every P.
func (in *input) meter(tr *tracer, serial bool) *speedMeter {
	if in.probe == nil {
		return nil
	}
	m := &speedMeter{p: in.probe, procs: runtime.GOMAXPROCS(0), tr: tr}
	if serial {
		m.procs = 1
	}
	return m
}

func (m *speedMeter) sample(parent int) {
	if m == nil {
		return
	}
	id := m.tr.begin("bench.probe", parent)
	t0 := time.Now()
	var sum time.Duration
	if m.procs == 1 {
		probeSink += m.p.kernel()
		sum = time.Since(t0)
	} else {
		var wg sync.WaitGroup
		took := make([]time.Duration, m.procs)
		sinks := make([]uint64, m.procs)
		for i := range m.procs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t := time.Now()
				sinks[i] = m.p.kernel()
				took[i] = time.Since(t)
			}()
		}
		wg.Wait()
		for i := range m.procs {
			probeSink += sinks[i]
			sum += took[i]
		}
	}
	m.total += sum / time.Duration(m.procs)
	m.n++
	m.spent += time.Since(t0)
	m.tr.end(id)
}

// pause is a slice boundary on a running engine: QueryStats travels the
// ingest queue and is acknowledged by every shard, so when it returns the
// engine has worked off everything submitted so far and is idle while the
// kernel runs. The wait stays on the rep's clock; the sample does not.
func (m *speedMeter) pause(eng *saql.Engine, parent int) {
	if m == nil {
		return
	}
	eng.QueryStats(markerQuery.Name)
	m.sample(parent)
}

// offClock is the wall time spent inside samples so far.
func (m *speedMeter) offClock() time.Duration {
	if m == nil {
		return 0
	}
	return m.spent
}

// kernelSpeed is nominalProbe ÷ the mean kernel time over the rep's samples.
func (m *speedMeter) kernelSpeed() float64 {
	if m == nil || m.total == 0 {
		return 1
	}
	return float64(nominalProbe) * float64(m.n) / float64(m.total)
}

// speed is the machine's speed as work of the given sensitivity (cpuBound
// or handOffs) felt it during r: 1 is nominal.
func (r rep) speed(sensitivity float64) float64 { return math.Pow(r.Kernel, sensitivity) }
