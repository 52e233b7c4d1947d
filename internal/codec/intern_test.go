package codec

import (
	"fmt"
	"testing"
	"unsafe"

	"saql/internal/event"
)

func strData(s string) uintptr {
	return uintptr(unsafe.Pointer(unsafe.StringData(s)))
}

func TestInternTableDeduplicates(t *testing.T) {
	var tab internTable
	a := tab.str(string([]byte("svchost.exe")))
	b := tab.str(string([]byte("svchost.exe")))
	if a != b {
		t.Fatalf("intern changed value: %q vs %q", a, b)
	}
	if strData(a) != strData(b) {
		t.Fatalf("equal strings not deduplicated to one backing array")
	}
}

func TestInternTableBounds(t *testing.T) {
	var tab internTable
	if got := tab.str(""); got != "" {
		t.Fatalf("empty string: got %q", got)
	}
	long := string(make([]byte, internMaxLen+1))
	if got := tab.str(long); got != long {
		t.Fatalf("over-length string mangled")
	}
	if len(tab.m) != 0 {
		t.Fatalf("over-length string cached (%d entries)", len(tab.m))
	}

	// Fill to capacity; the table must stop growing but keep serving hits.
	for i := 0; i < internMaxEntries+100; i++ {
		tab.str(fmt.Sprintf("value-%d", i))
	}
	if len(tab.m) > internMaxEntries {
		t.Fatalf("table exceeded cap: %d > %d", len(tab.m), internMaxEntries)
	}
	first := tab.str(string([]byte("value-0")))
	if strData(first) != strData(tab.str("value-0")) {
		t.Fatalf("full table stopped deduplicating existing entries")
	}
}

// TestNDJSONDecodeInterns proves the ndjson decoder's repeated attribute
// strings share one backing allocation across lines, while distinct values
// stay distinct.
func TestNDJSONDecodeInterns(t *testing.T) {
	d, err := New("ndjson", Options{})
	if err != nil {
		t.Fatal(err)
	}
	line := `{"ts":"2020-02-27T09:00:00Z","agent":"db-1","subject":{"exe":"osql.exe","pid":%d,"user":"svc"},"op":"connect","object":{"type":"ip","dst_ip":"10.0.0.9","dst_port":1433,"proto":"tcp"}}`
	var evs []*event.Event
	for pid := 1; pid <= 3; pid++ {
		out, err := d.Decode([]byte(fmt.Sprintf(line, pid)))
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, out...)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for _, pick := range []func(*event.Event) string{
		func(e *event.Event) string { return e.AgentID },
		func(e *event.Event) string { return e.Subject.ExeName },
		func(e *event.Event) string { return e.Subject.User },
		func(e *event.Event) string { return e.Object.DstIP },
		func(e *event.Event) string { return e.Object.Protocol },
	} {
		if strData(pick(evs[0])) != strData(pick(evs[1])) || strData(pick(evs[1])) != strData(pick(evs[2])) {
			t.Fatalf("attribute %q not interned across events", pick(evs[0]))
		}
	}
	if evs[0].Subject.PID == evs[1].Subject.PID {
		t.Fatalf("distinct events collapsed")
	}
}

// TestSharedInternTable: decoders given one InternTable share it — a value
// first seen by one decoder is a hit for the others and resolves to the same
// canonical copy — so their counters are those of a single decoder with a
// table of its own over the same lines, however the lines are split among
// them.
func TestSharedInternTable(t *testing.T) {
	line := `{"ts":"2020-02-27T09:00:00Z","agent":"db-%d","subject":{"exe":"osql%d.exe","pid":1,"user":"svc"},"op":"connect","object":{"type":"ip","dst_ip":"10.0.0.%d","dst_port":1433,"proto":"tcp"}}`
	decodeSplit := func(workers int) (*InternStats, []*event.Event) {
		var stats InternStats
		opts := Options{Intern: &stats}
		if workers > 1 {
			opts.Table = new(InternTable)
		}
		decs := make([]Decoder, workers)
		for i := range decs {
			decs[i], _ = New("ndjson", opts)
		}
		var evs []*event.Event
		for i := 0; i < 60; i++ {
			out, err := decs[i%workers].Decode([]byte(fmt.Sprintf(line, i%4, i%7, i%5)))
			if err != nil {
				t.Fatal(err)
			}
			evs = append(evs, out...)
		}
		return &stats, evs
	}
	want, _ := decodeSplit(1)
	got, evs := decodeSplit(3)
	if got.Hits.Load() != want.Hits.Load() || got.Misses.Load() != want.Misses.Load() || got.Entries.Load() != want.Entries.Load() {
		t.Fatalf("3 decoders counted hits/misses/entries %d/%d/%d, one decoder %d/%d/%d",
			got.Hits.Load(), got.Misses.Load(), got.Entries.Load(), want.Hits.Load(), want.Misses.Load(), want.Entries.Load())
	}
	// Lines 0 and 28 share their agent and executable but went to
	// different decoders (0 % 3 != 28 % 3).
	if strData(evs[0].Subject.ExeName) != strData(evs[28].Subject.ExeName) || strData(evs[0].AgentID) != strData(evs[28].AgentID) {
		t.Fatal("decoders sharing a table returned different canonical copies")
	}
}

// TestFullSharedInternTable: a decoder that finds the shared table full
// reads it in place of its cache, and counts what a decoder with a full
// table of its own counts: a held value is a hit with its canonical copy, a
// new one a symbol-less miss.
func TestFullSharedInternTable(t *testing.T) {
	var own internTable
	shared := new(InternTable)
	filler, late := internTable{shared: shared}, internTable{shared: shared}
	for i := 0; i < internMaxEntries+100; i++ {
		v := fmt.Sprintf("value-%d", i)
		own.str(v)
		filler.str(v)
	}
	if len(shared.m) != internMaxEntries || !filler.full {
		t.Fatalf("shared table holds %d values (full seen: %v), want %d", len(shared.m), filler.full, internMaxEntries)
	}
	for _, tab := range []*internTable{&own, &late} {
		tab.hits, tab.misses = 0, 0
		v0, sym0 := tab.val(string([]byte("value-0")))
		vNew, symNew := tab.val("value-new")
		if _, sym := tab.val("value-7"); sym == 0 || sym0 == 0 || symNew != 0 || vNew != "value-new" {
			t.Fatalf("full table: held values must keep their symbols, a new one gets none")
		}
		if tab.hits != 2 || tab.misses != 1 {
			t.Fatalf("full table counted %d hits, %d misses; want 2, 1", tab.hits, tab.misses)
		}
		if tab == &late && (strData(v0) != strData(filler.str("value-0")) || !late.full) {
			t.Fatal("a decoder finding the shared table full must read it, canonical copies included")
		}
	}
}
