package main

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runConfig is one workload run: what the driver's four flags select, plus
// the corpus size (the smoke test shrinks it).
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Spec     corpusSpec
	OutDir   string // bench/out: trace files and journal directories
	// ProbeSteps shortens the speed kernel (the smoke test's race build runs
	// it ten times slower); 0 is probeSteps, which nominalProbe goes with.
	ProbeSteps int
}

// runResult is what one run reports.
type runResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	WallS     float64 `json:"wall_s"`
	// Kernel is the median kernel speed over the run's reps (probe.go).
	Kernel  float64           `json:"kernel_speed"`
	Reps    map[string]int    `json:"reps"`
	Corpus  corpusInfo        `json:"corpus"`
	Metrics map[string]sample `json:"metrics"`
	// Samples holds the per-rep values behind each end-to-end metric.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

// corpusInfo identifies the generated input, so two result files can prove
// they measured the same thing.
type corpusInfo struct {
	Events      int    `json:"events"`
	Markers     int    `json:"markers"`
	EventsHash  string `json:"events_fnv64a"`
	NDJSONBytes int    `json:"ndjson_bytes,omitempty"`
	NDJSONHash  string `json:"ndjson_fnv64a,omitempty"`
}

// run generates the inputs from the seed, computes the serial reference,
// and measures one workload.
func run(cfg runConfig) (*runResult, error) {
	began := time.Now()
	sc, ok := findScenario(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	c, err := genCorpus(cfg.Spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.OutDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	in := &input{sc: sc, c: c, queries: sc.Queries(c), tmp: tmp, probe: newProbe(cmp.Or(cfg.ProbeSteps, probeSteps))}
	res := &runResult{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Reps:    map[string]int{},
		Corpus:  corpusInfo{Events: len(c.Events), Markers: len(c.Markers), EventsHash: fmt.Sprintf("%016x", c.Hash)},
		Metrics: map[string]sample{},
	}
	if sc.Raw {
		in.nd = renderNDJSON(c.Events)
		if err := checkRoundTrip(c.Events, in.nd); err != nil {
			return nil, fmt.Errorf("ndjson round trip: %w", err)
		}
		res.Corpus.NDJSONBytes, res.Corpus.NDJSONHash = len(in.nd.Data), fmt.Sprintf("%016x", in.nd.Hash)
	}

	// The oracle: a never-started serial engine over the pre-built events.
	// It is also the first sample of the single-threaded baseline.
	oracle, alerts, err := in.runSerial()
	if err != nil {
		return nil, err
	}
	in.ref = multiset(alerts)
	if len(alerts) < len(c.Markers) {
		return nil, fmt.Errorf("reference run raised %d alerts for %d markers", len(alerts), len(c.Markers))
	}

	if cfg.Trace {
		err = in.traced(cfg, oracle, res)
	} else {
		err = in.measure(cfg, oracle, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

// count adds a rep's events and failures to the run's totals.
func (res *runResult) count(kind string, r rep) {
	res.Reps[kind]++
	res.Attempted += r.Events
	res.Failed += r.Failed
}

// eventsPerSecond is a rep's rate at machine speed 1.
func eventsPerSecond(r rep) float64 {
	return float64(r.Events) / (r.Wall.Seconds() * r.speed(cpuBound))
}

// measure is the untraced run: rounds of one closed-loop rep on the
// concurrent engine, one rep of the single-threaded baseline, one open-loop
// pass at the reference rate and one burst of set-ups, until the seconds are
// spent — so every metric's samples are spread over the whole run. Every
// sample is scaled to machine speed 1 (probe.go); a metric's value for the
// run is the median of its samples.
func (in *input) measure(cfg runConfig, oracle rep, res *runResult) error {
	start := time.Now()
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	res.count("serial", oracle)
	res.Samples = map[string][]float64{}
	var kernel []float64
	add := func(name string, v float64, r rep) {
		res.Samples[name] = append(res.Samples[name], v)
		res.Samples[name+".kernel_speed"] = append(res.Samples[name+".kernel_speed"], r.Kernel)
		kernel = append(kernel, r.Kernel)
	}
	// A round that would overrun the seconds is not started.
	var round time.Duration
	for time.Since(start)+round <= budget {
		began := time.Now()
		r, err := in.runClosed(nil)
		if err != nil {
			return err
		}
		res.count("closed", r)
		add("events_per_s", eventsPerSecond(r), r)

		s, alerts, err := in.runSerial()
		if err != nil {
			return err
		}
		s.Failed += in.mismatch(alerts)
		res.count("serial", s)
		add("serial_events_per_s", eventsPerSecond(s), s)

		p, err := in.runPaced(referenceRate, nil, 0, true)
		if err != nil {
			return err
		}
		res.count("paced", p)
		add("alert_latency_p50_ms", percentile(p.LatencyMS, 0.50)*p.speed(handOffs), p)

		b, err := in.setupBurst()
		if err != nil {
			return err
		}
		add("setup_s", b.Setup.Seconds()*b.speed(cpuBound), b)
		round = time.Since(began)
	}
	for _, d := range endToEnd {
		if vals, ok := res.Samples[d.Name]; ok {
			res.Metrics[d.Name] = summarize(d.Unit, vals)
		}
	}
	res.Metrics["peak_rss_mb"] = one("MB", peakRSSMB())
	res.Kernel = median(kernel)
	return nil
}

// setupBurst is one sample of set-up time: set-up/tear-down cycles four at
// a time with a speed sample around every four (set-up is a millisecond or
// two on one goroutine); Setup is the median cycle.
func (in *input) setupBurst() (rep, error) {
	m := in.meter(nil, true)
	var took []float64
	m.sample(-1)
	for range probeSlices / 2 {
		for range 4 {
			d, err := in.setupOnly()
			if err != nil {
				return rep{}, err
			}
			took = append(took, float64(d))
		}
		m.sample(-1)
	}
	return rep{Setup: time.Duration(median(took)), Kernel: m.kernelSpeed()}, nil
}

// traced is the per-layer run. Front-door spans go around the very calls
// the untraced run makes, in reps that alternate with untraced ones (their
// difference is the tracing overhead); then one traced open-loop pass at
// the reference rate; then the staged replica; then the rate ladder.
func (in *input) traced(cfg runConfig, oracle rep, res *runResult) error {
	start := time.Now()
	tr := newTracer()
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	m["bench.corpus_gen_s"] = in.c.GenTime.Seconds()
	res.count("serial", oracle)

	// Front door, closed loop: at least one untraced/traced pair, more
	// while a quarter of the seconds lasts.
	var plain, withSpans []float64
	var ckpt, restore, drain []float64
	var last rep
	var mem memDelta
	for first := true; first || time.Since(start).Seconds() < cfg.Seconds/4; first = false {
		if first {
			mem.start()
		}
		u, err := in.runClosed(nil)
		if err != nil {
			return err
		}
		if first {
			mem.stop()
		}
		t, err := in.runClosed(tr)
		if err != nil {
			return err
		}
		res.count("closed", u)
		res.count("closed-traced", t)
		plain, withSpans = append(plain, u.Wall.Seconds()), append(withSpans, t.Wall.Seconds())
		for _, r := range []rep{u, t} {
			drain = append(drain, float64(r.Close)/1e6)
			for _, d := range r.Checkpoints {
				ckpt = append(ckpt, float64(d)/1e6)
			}
			if in.sc.Journal {
				restore = append(restore, r.Restore.Seconds())
			}
		}
		last = t
	}
	mem.report(last.Events, m)
	untraced := median(plain)
	m["bench.trace_overhead_share"] = (median(withSpans) - untraced) / untraced
	m["runtime.submit_ns_per_event"] = float64(last.Blocked) / float64(last.Events)
	m["runtime.submit_blocked_share"] = float64(last.Blocked) / float64(last.Wall)
	m["runtime.drain_ms"] = median(drain)
	m["runtime.shards"] = float64(last.Shards)
	m["runtime.speedup_vs_serial"] = oracle.Wall.Seconds() / untraced
	m["runtime.dropped"] = float64(last.Stats.Dropped)
	m["engine.state_bytes"] = float64(last.State)
	m["engine.query_errors"] = float64(last.QueryErrors)
	m["pcode.symbol_fallbacks"] = float64(last.Stats.SymbolFallbacks)
	if in.sc.Journal {
		m["checkpoint.p50_ms"] = median(ckpt)
		m["checkpoint.count"] = float64(len(ckpt))
		m["checkpoint.ingest_stall_ms"] = float64(last.Stall) / 1e6
		m["restore.restore_s"] = median(restore)
		m["restore.replay_events"] = float64(last.Replayed)
	}

	// Front door, open loop at the reference rate.
	ref, err := in.runPaced(referenceRate, tr, 0, true)
	if err != nil {
		return err
	}
	res.count("paced-traced", ref)
	// The latency distribution beyond the median, from this pass and as many
	// untraced ones as fit a quarter of the seconds: each figure is the
	// median across passes. Tails move with the seed (which markers meet a
	// window close or a GC cycle), so they are reported here, unbounded.
	lat := map[string][]float64{}
	pass := ref
	for n := int(cfg.Seconds / 4 * referenceRate / float64(len(in.c.Events))); ; n-- {
		lat["p50"] = append(lat["p50"], percentile(pass.LatencyMS, 0.50))
		lat["p90"] = append(lat["p90"], percentile(pass.LatencyMS, 0.90))
		lat["p99"] = append(lat["p99"], percentile(pass.LatencyMS, 0.99))
		lat["mean"] = append(lat["mean"], mean(pass.LatencyMS))
		lat["max"] = append(lat["max"], percentile(pass.LatencyMS, 1))
		m["latency.samples"] += float64(len(pass.LatencyMS))
		if n <= 0 {
			break
		}
		if pass, err = in.runPaced(referenceRate, nil, 0, true); err != nil {
			return err
		}
		res.count("paced", pass)
	}
	for k, v := range lat {
		m["latency."+k+"_ms"] = median(v)
	}
	m["runtime.detect_lag_p50_us"] = percentile(ref.DetectUS, 0.50)
	m["runtime.detect_lag_p99_us"] = percentile(ref.DetectUS, 0.99)
	m["fanout.deliver_lag_p50_us"] = percentile(ref.DeliverUS, 0.50)
	m["fanout.deliver_lag_p99_us"] = percentile(ref.DeliverUS, 0.99)
	m["fanout.sub_dropped"] = float64(ref.SubDrops)
	m["bench.generator_late_p99_ms"] = percentile(ref.LateMS, 0.99)
	m["bench.generator_late_max_ms"] = percentile(ref.LateMS, 1)

	// The front-door spans are complete; what follows adds the staged ones.
	if err := in.staged(tr, m); err != nil {
		return err
	}
	layers := tr.layers()
	stagedMetrics(layers, len(in.c.Events), m)
	if lt := layers["source.run"]; lt != nil && lt.Total > 0 {
		m["source.submit_blocked_share"] = float64(last.Blocked) / float64(lt.Total)
	}
	if lt := layers["restore.snapshot_load"]; lt != nil {
		m["restore.snapshot_load_ms"] = float64(lt.Total) / float64(lt.Count) / 1e6
	}
	if lt := layers["restore.replay"]; lt != nil && lt.Total > 0 {
		m["restore.replay_events_per_s"] = float64(last.Replayed) * float64(lt.Count) / (float64(lt.Total) / 1e9)
	}

	// The ladder: untraced open-loop passes above the reference rate. A rung
	// holds when its p99 from due time and its drain after the last submit
	// both stay within 100 ms; the sustainable rate is the highest rung
	// below the first that fails.
	const limitMS = 100
	holds := func(r rep) bool { return percentile(r.LatencyMS, 0.99) <= limitMS && float64(r.Close)/1e6 <= limitMS }
	sustainable, climbing := 0.0, holds(ref)
	if climbing {
		sustainable = referenceRate
	}
	for _, rate := range ladderRates {
		r, err := in.runPaced(rate, nil, 50*time.Millisecond, false)
		if err != nil {
			return err
		}
		res.count("ladder", r)
		rung := fmt.Sprintf("%dk", int(rate/1000))
		maxBacklog, slope := backlogTrend(r.Backlog)
		m["runtime.rung_p99_ms."+rung] = percentile(r.LatencyMS, 0.99)
		m["runtime.rung_drain_ms."+rung] = float64(r.Close) / 1e6
		m["runtime.backlog_max_events."+rung] = maxBacklog
		m["runtime.backlog_slope_eps."+rung] = slope
		if climbing = climbing && holds(r); climbing {
			sustainable = rate
		}
	}
	m["runtime.sustainable_rate_eps"] = sustainable

	for _, d := range perLayer {
		res.Metrics[d.Name] = one(d.Unit, m[d.Name])
	}
	return tr.write(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".json"), cfg.Workload, cfg.Seed, m)
}

// backlogTrend is the largest sampled backlog and its least-squares growth
// in events per second over the pass.
func backlogTrend(pts []backlogPoint) (maxBacklog, slope float64) {
	if len(pts) == 0 {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		x, y := p.At.Seconds(), float64(p.Backlog)
		maxBacklog = max(maxBacklog, y)
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	n := float64(len(pts))
	if den := n*sxx - sx*sx; den > 0 {
		slope = (n*sxy - sx*sy) / den
	}
	return maxBacklog, slope
}

func median(vals []float64) float64 { return summarize("", vals).Median }
