package main

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"saql"
	"saql/internal/codec"
	"saql/internal/event"
)

// rendered is the corpus as native NDJSON: one line per event, in order.
// Ends[i] is the byte offset just past line i's newline, so any run of
// lines is one slice of Data.
type rendered struct {
	Data []byte
	Ends []int
	Hash uint64 // FNV-1a of Data
}

// lines returns the bytes of lines [i, j).
func (r *rendered) lines(i, j int) []byte {
	start := 0
	if i > 0 {
		start = r.Ends[i-1]
	}
	return r.Data[start:r.Ends[j-1]]
}

// renderNDJSON writes events in the schema internal/codec/ndjson.go
// documents (the repo has a decoder but no encoder). Timestamps keep their
// nanoseconds and amounts their shortest exact form, so decoding gives back
// the very values the pre-built events hold.
func renderNDJSON(events []*saql.Event) *rendered {
	r := &rendered{Data: make([]byte, 0, 220*len(events)), Ends: make([]int, 0, len(events))}
	b := r.Data
	str := func(key, val string) {
		b = append(b, '"')
		b = append(b, key...)
		b = append(b, `":`...)
		b = strconv.AppendQuote(b, val) // every corpus string is ASCII, where Go and JSON quoting agree
	}
	num := func(key string, v int64) {
		b = append(b, '"')
		b = append(b, key...)
		b = append(b, `":`...)
		b = strconv.AppendInt(b, v, 10)
	}
	entity := func(e *saql.Entity, withType bool) {
		b = append(b, '{')
		switch e.Type {
		case event.EntityProcess:
			if withType {
				b = append(b, `"type":"proc",`...)
			}
			str("exe", e.ExeName)
			b = append(b, ',')
			num("pid", int64(e.PID))
		case event.EntityFile:
			b = append(b, `"type":"file",`...)
			str("path", e.Path)
		case event.EntityNetConn:
			b = append(b, `"type":"ip",`...)
			str("src_ip", e.SrcIP)
			b = append(b, ',')
			num("src_port", int64(e.SrcPort))
			b = append(b, ',')
			str("dst_ip", e.DstIP)
			b = append(b, ',')
			num("dst_port", int64(e.DstPort))
			b = append(b, ',')
			str("proto", e.Protocol)
		}
		b = append(b, '}')
	}
	for _, ev := range events {
		b = append(b, '{')
		str("ts", ev.Time.UTC().Format(time.RFC3339Nano))
		b = append(b, ',')
		str("agent", ev.AgentID)
		b = append(b, `,"subject":`...)
		entity(&ev.Subject, false)
		b = append(b, ',')
		str("op", ev.Op.String())
		b = append(b, `,"object":`...)
		entity(&ev.Object, true)
		b = append(b, `,"amount":`...)
		b = strconv.AppendFloat(b, ev.Amount, 'g', -1, 64)
		b = append(b, "}\n"...)
		r.Ends = append(r.Ends, len(b))
	}
	r.Data = b
	h := fnv.New64a()
	h.Write(b)
	r.Hash = h.Sum64()
	return r
}

// checkRoundTrip decodes the rendered corpus once, before any timing, and
// demands event-for-event equality on every field a query can read (the
// event ID is not part of the schema).
func checkRoundTrip(events []*saql.Event, r *rendered) error {
	dec, err := codec.New("ndjson", codec.Options{})
	if err != nil {
		return err
	}
	if len(r.Ends) != len(events) {
		return fmt.Errorf("rendered %d lines for %d events", len(r.Ends), len(events))
	}
	for i, want := range events {
		line := r.lines(i, i+1)
		got, err := dec.Decode(line[:len(line)-1])
		if err != nil {
			return fmt.Errorf("line %d: %w", i, err)
		}
		if len(got) != 1 {
			return fmt.Errorf("line %d decoded to %d events", i, len(got))
		}
		g := got[0]
		if !g.Time.Equal(want.Time) || g.AgentID != want.AgentID || g.Op != want.Op || g.Amount != want.Amount ||
			!sameEntity(&g.Subject, &want.Subject) || !sameEntity(&g.Object, &want.Object) {
			return fmt.Errorf("line %d: decoded %v, rendered from %v", i, g, want)
		}
	}
	return nil
}

func sameEntity(a, b *saql.Entity) bool {
	return a.Type == b.Type && a.ExeName == b.ExeName && a.PID == b.PID && a.User == b.User && a.CmdLine == b.CmdLine &&
		a.Path == b.Path && a.SrcIP == b.SrcIP && a.DstIP == b.DstIP && a.SrcPort == b.SrcPort && a.DstPort == b.DstPort &&
		a.Protocol == b.Protocol
}
