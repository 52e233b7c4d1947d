package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"saql"
	"saql/internal/codec"
	"saql/internal/engine"
	"saql/internal/event"
	sruntime "saql/internal/runtime"
	"saql/internal/scheduler"
	"saql/internal/snapshot"
	"saql/internal/source"
	"saql/internal/storage"
	"saql/internal/wire"
)

// stagedBatch is the batch size the staged replica drives every layer with.
const stagedBatch = 256

// nopSubmitter lets the source run with no engine behind it.
type nopSubmitter struct{}

func (nopSubmitter) SubmitBatch([]*event.Event) error { return nil }

// staged drives the layers' own entry points, single-threaded, over the
// same corpus the front door ingests: decode → shared evaluation → state
// folding → fan-out, and (journaled workloads) wire encode → journal append
// → sync → scan → snapshot encode/decode/write. One span per batch per
// stage goes to tr; the counters a span cannot carry go to m.
func (in *input) staged(tr *tracer, m map[string]float64) error {
	tr.nextRep()
	root := tr.begin("staged", -1)
	defer tr.end(root)
	n := float64(len(in.c.Events))

	// parser: lexer + parser + sema + engine.Compile, once per replica.
	compile := func() ([]*engine.Query, error) {
		qs := make([]*engine.Query, len(in.queries))
		for i, q := range in.queries {
			id := tr.begin("parser.compile", root)
			cq, err := engine.Compile(q.Name, q.SAQL, engine.CompileOptions{})
			tr.end(id)
			if err != nil {
				return nil, err
			}
			qs[i] = cq
		}
		return qs, nil
	}
	evalSched, foldSched := scheduler.New(nil, true), scheduler.New(nil, true)
	for _, s := range []*scheduler.Scheduler{evalSched, foldSched} {
		qs, err := compile()
		if err != nil {
			return err
		}
		for _, q := range qs {
			if err := s.Add(q); err != nil {
				return err
			}
		}
	}
	m["parser.queries"] = float64(len(in.queries))

	// codec (+ source): only raw input has anything to decode.
	events := in.c.Events
	if in.sc.Raw {
		var intern codec.InternStats
		dec, err := codec.New("ndjson", codec.Options{Intern: &intern})
		if err != nil {
			return err
		}
		// The source's own cost is its run into a no-op submitter minus the
		// decoding inside it. The two are timed at different moments on a
		// machine whose speed drifts, so each is timed twice, alternately, and
		// the quicker of each pair is used.
		var decoded []*event.Event
		var errs float64
		var ms0, ms1 runtime.MemStats
		var src *source.Source
		decodeNS, sourceNS := math.Inf(1), math.Inf(1)
		for range 2 {
			decoded = make([]*event.Event, 0, len(events))
			errs = 0
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			for i := 0; i < len(events); i += stagedBatch {
				j := min(i+stagedBatch, len(events))
				id := tr.begin("codec.decode", root)
				for k := i; k < j; k++ {
					line := in.nd.lines(k, k+1)
					evs, err := dec.Decode(line[:len(line)-1])
					if err != nil {
						errs++
					}
					decoded = append(decoded, evs...)
				}
				tr.end(id)
			}
			decodeNS = min(decodeNS, float64(time.Since(t0)))
			runtime.ReadMemStats(&ms1)

			src, err = source.FromReader(bytes.NewReader(in.nd.Data), source.Config{Format: "ndjson"})
			if err != nil {
				return err
			}
			t0 = time.Now()
			id := tr.begin("source.run_noop", root)
			err = src.Run(context.Background(), nopSubmitter{})
			tr.end(id)
			if err != nil {
				return err
			}
			sourceNS = min(sourceNS, float64(time.Since(t0)))
		}
		m["codec.decode_ns_per_line"] = decodeNS / n
		m["source.busy_ns_per_line"] = max(0, sourceNS-decodeNS) / n
		m["codec.lines"] = n
		m["codec.events_out"] = float64(len(decoded))
		m["codec.decode_errors"] = errs
		m["codec.allocs_per_line"] = float64(ms1.Mallocs-ms0.Mallocs) / n
		m["codec.bytes_per_line"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
		if lookups := intern.Hits.Load() + intern.Misses.Load(); lookups > 0 {
			m["codec.symbol_hit_ratio"] = float64(intern.Hits.Load()) / float64(lookups)
		}
		events = decoded
		st := src.Stats()
		m["source.batches"], m["source.reordered"] = float64(st.Batches), float64(st.Reordered)
		m["source.late"], m["source.dropped"] = float64(st.Late), float64(st.Dropped)
	}

	// scheduler.evaluate → engine.fold → fanout.publish, batch by batch.
	fan := sruntime.NewAlertFanout(func(*engine.Alert) {})
	var useful, hitSlots, alerts float64
	for i := 0; i < len(events); i += stagedBatch {
		batch := events[i:min(i+stagedBatch, len(events))]
		id := tr.begin("scheduler.evaluate", root)
		hits := evalSched.EvaluateBatch(batch)
		tr.end(id)
		var raised []*engine.Alert
		id = tr.begin("engine.fold", root)
		for k, ev := range batch {
			if hits[k] != nil {
				useful++
				for _, h := range hits[k].Hits {
					if len(h) > 0 {
						hitSlots++
					}
				}
			}
			raised = append(raised, foldSched.ProcessWithHits(ev, hits[k])...)
		}
		tr.end(id)
		id = tr.begin("fanout.publish", root)
		fan.Publish(raised)
		tr.end(id)
		alerts += float64(len(raised))
	}
	id := tr.begin("engine.flush", root)
	final := foldSched.Flush()
	tr.end(id)
	fan.Publish(final)
	alerts += float64(len(final))
	st := evalSched.Stats()
	m["scheduler.pattern_evals_per_event"] = float64(st.PatternEvals) / n
	m["scheduler.sharing_ratio"] = st.SharingRatio()
	m["scheduler.hit_ratio"] = hitSlots / (n * float64(len(in.queries)))
	m["scheduler.query_groups"] = float64(evalSched.GroupCount())
	m["codec.useful_event_ratio"] = useful / n
	m["engine.alerts"] = alerts
	m["fanout.delivered"] = float64(fan.Delivered())

	if !in.sc.Journal {
		return nil
	}

	// wire on its own (the journal calls the same encoder inside AppendAll,
	// so these two stages are not added into the pipeline shares).
	var buf []byte
	id = tr.begin("wire.encode", root)
	for _, ev := range in.c.Events {
		buf = wire.AppendEvent(buf, ev)
	}
	tr.end(id)
	rd := wire.NewReader(buf)
	id = tr.begin("wire.decode", root)
	for range in.c.Events {
		rd.ReadEvent()
	}
	tr.end(id)
	if err := rd.Err(); err != nil {
		return err
	}

	// storage: append in batches, sync, scan everything back.
	dir, err := os.MkdirTemp(in.tmp, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := storage.Open(dir, storage.Options{})
	if err != nil {
		return err
	}
	for i := 0; i < len(in.c.Events); i += stagedBatch {
		id := tr.begin("storage.append", root)
		err := store.AppendAll(in.c.Events[i:min(i+stagedBatch, len(in.c.Events))])
		tr.end(id)
		if err != nil {
			return err
		}
	}
	id = tr.begin("storage.sync", root)
	err = store.Sync()
	tr.end(id)
	if err != nil {
		return err
	}
	if err := store.Close(); err != nil {
		return err
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	var bytesOnDisk int64
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil {
			bytesOnDisk += fi.Size()
		}
	}
	m["storage.segments"] = float64(len(segs))
	m["storage.bytes_per_event"] = float64(bytesOnDisk) / n
	scanned := 0
	id = tr.begin("storage.scan", root)
	err = store.ScanFrom(0, storage.Selection{}, func(*event.Event) error { scanned++; return nil })
	tr.end(id)
	if err != nil {
		return err
	}
	if scanned != len(in.c.Events) {
		return fmt.Errorf("journal scan returned %d of %d events", scanned, len(in.c.Events))
	}

	// snapshot: take a real one from an engine that has ingested the corpus,
	// then time the codec and the atomic file install on their own.
	eng, _, ckDir, _, err := in.open(nil, -1, func(*saql.Alert) {})
	defer os.RemoveAll(ckDir)
	if err != nil {
		return err
	}
	for i := 0; i < len(in.c.Events); i += in.sc.Batch {
		if err := eng.SubmitBatch(in.c.Events[i:min(i+in.sc.Batch, len(in.c.Events))]); err != nil {
			return err
		}
	}
	_, err = eng.Checkpoint(ckDir)
	_ = eng.Close()
	if err != nil {
		return err
	}
	snap, err := snapshot.Read(ckDir)
	if err != nil {
		return err
	}
	const rounds = 5 // a snapshot of this size encodes in well under a millisecond
	var image []byte
	for range rounds {
		id = tr.begin("snapshot.encode", root)
		image = snapshot.Encode(snap)
		tr.end(id)
		id = tr.begin("snapshot.decode", root)
		_, err = snapshot.Decode(image)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("snapshot.write", root)
		_, err = snapshot.Write(ckDir, snap)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	m["snapshot.bytes"] = float64(len(image))
	return nil
}

// stagedMetrics turns the staged spans into per-unit costs and the shares
// of the staged pipeline each layer group takes.
func stagedMetrics(layers map[string]*layerTime, events int, m map[string]float64) {
	n := float64(events)
	self := func(name string) float64 {
		if lt := layers[name]; lt != nil {
			return float64(lt.Self)
		}
		return 0
	}
	per := func(name string, lt *layerTime, div float64) {
		if lt != nil && div > 0 {
			m[name] = float64(lt.Total) / div
		}
	}
	if lt := layers["parser.compile"]; lt != nil {
		m["parser.compile_us_per_query"] = float64(lt.Total) / float64(lt.Count) / 1e3
	}
	per("scheduler.evaluate_ns_per_event", layers["scheduler.evaluate"], n)
	per("engine.fold_ns_per_event", layers["engine.fold"], n)
	per("engine.flush_ms", layers["engine.flush"], 1e6)
	per("wire.encode_ns_per_event", layers["wire.encode"], n)
	per("wire.decode_ns_per_event", layers["wire.decode"], n)
	per("storage.append_ns_per_event", layers["storage.append"], n)
	per("storage.scan_ns_per_event", layers["storage.scan"], n)
	per("storage.sync_ms", layers["storage.sync"], 1e6)
	for _, s := range []string{"encode", "decode", "write"} {
		if lt := layers["snapshot."+s]; lt != nil {
			m["snapshot."+s+"_ms"] = float64(lt.Total) / float64(lt.Count) / 1e6
		}
	}

	// codec + source together are the source's no-op run (decode happens
	// inside it); both stages ran twice.
	codecSource := max(self("codec.decode"), self("source.run_noop")) / 2
	evalFold := self("scheduler.evaluate") + self("engine.fold")
	durability := self("storage.append") + self("storage.sync") + self("storage.scan")
	for _, s := range []string{"encode", "decode", "write"} {
		if lt := layers["snapshot."+s]; lt != nil {
			durability += float64(lt.Self) / float64(lt.Count)
		}
	}
	total := codecSource + evalFold + durability + self("fanout.publish") + self("engine.flush")
	if total > 0 {
		m["staged.codec_source_share"] = codecSource / total
		m["staged.eval_fold_share"] = evalFold / total
		m["staged.durability_share"] = durability / total
	}
}

// memDelta is heap activity between two points of one process.
type memDelta struct{ before, after runtime.MemStats }

func (d *memDelta) start() { runtime.ReadMemStats(&d.before) }
func (d *memDelta) stop()  { runtime.ReadMemStats(&d.after) }

func (d *memDelta) report(events int, m map[string]float64) {
	n := float64(events)
	m["runtime.allocs_per_event"] = float64(d.after.Mallocs-d.before.Mallocs) / n
	m["runtime.alloc_bytes_per_event"] = float64(d.after.TotalAlloc-d.before.TotalAlloc) / n
	m["runtime.gc_cycles"] = float64(d.after.NumGC - d.before.NumGC)
	m["runtime.gc_pause_total_ms"] = float64(d.after.PauseTotalNs-d.before.PauseTotalNs) / 1e6
}
