// Package codec turns raw monitoring-log lines into the normalized
// ⟨subject, operation, object⟩ events of internal/event. Each supported log
// format is a Decoder under a short name in one static table;
// internal/source drives a Decoder line by line and submits the events it
// emits to the engine.
//
// Three production codecs ship with the package:
//
//   - "auditd": the Linux kernel audit framework's native line format,
//     including multi-record event reassembly (SYSCALL + PATH + SOCKADDR +
//     EXECVE + CWD groups sharing one audit event ID);
//   - "sysmon": Sysmon/ECS-style JSON lines as emitted by winlogbeat and
//     compatible shippers (nested or dotted ECS field names);
//   - "ndjson": the engine's native newline-delimited JSON schema, a direct
//     serialization of event.Event for loss-free interchange.
//
// A Decoder is stateful (auditd buffers partial record groups) and therefore
// not safe for concurrent use; create one Decoder per decode worker. A
// format's table entry says whether its lines are line-local — each line
// decodes on its own, so the lines of one stream may be split among several
// decoders and their events put back in line order ("ndjson", "sysmon") — or
// not, in which case one decoder sees the whole stream ("auditd", whose
// record groups span lines). LineLocal reports it; internal/source sizes
// its decode pool by it.
//
// A decoder may also skip lines: one that implements Skipper, given a
// Prefilter built from the queries the stream feeds, scans and checks every
// line in full — so what is accepted and rejected does not change — but
// builds no event for a line the prefilter does not admit, and reports only
// that line's time. "ndjson" implements it; "auditd" and "sysmon" do not,
// and their lines are always built.
package codec

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"saql/internal/event"
)

// Options configure a Decoder instance.
type Options struct {
	// DefaultAgent is the AgentID stamped on events whose format carries no
	// host field (or whose host field is absent on a line). Empty uses the
	// format's fallback (the format name itself).
	DefaultAgent string
	// Intern, when non-nil, receives this decoder's intern-table hit/miss/
	// entry counts, so callers (one source, one engine) can report symbol
	// statistics scoped to their own streams rather than the process-global
	// dictionary totals.
	Intern *InternStats
	// Table, when non-nil, is the intern table this decoder shares with
	// every other decoder given the same one (the decode workers of one
	// stream). Nil gives the decoder a table of its own.
	Table *InternTable
}

// Decoder consumes one raw log line at a time and emits zero or more
// completed events. Formats that spread one logical event over several lines
// (auditd) buffer internally and emit on group completion; Flush drains
// whatever is still buffered at end of stream.
type Decoder interface {
	// Decode consumes one line (without the trailing newline). It returns
	// the events completed by this line, which may be empty: the line may be
	// a non-event record, a buffered partial group, or a valid record that
	// maps to nothing in the event model. A non-nil error reports a
	// malformed or undecodable line; the decoder remains usable.
	//
	// The returned slice is valid until the next Decode/Flush call (a
	// decoder may hand back the same backing array every time); the events
	// it points to are the caller's for good, and nothing in them aliases
	// line, which the caller may overwrite as soon as Decode returns.
	Decode(line []byte) ([]*event.Event, error)
	// Flush emits the events of any buffered partial state (end of stream).
	// Groups too incomplete to build an event are discarded.
	Flush() []*event.Event
}

// Prefilter tells, from a line's agentid and operation alone, whether any
// query the stream feeds could match the line's event.
type Prefilter interface {
	Admit(agent []byte, op event.Op) bool
}

// Skipper is a Decoder that can skip the lines a Prefilter does not admit.
type Skipper interface {
	Decoder
	// DecodeSkipping is Decode under pf. A line that decodes to one event
	// pf does not admit yields no events and skip true, with t the event's
	// time: it was scanned and checked like any other, so an undecodable
	// line is still an error, but nothing was built, interned or copied.
	DecodeSkipping(line []byte, pf Prefilter) (evs []*event.Event, t time.Time, skip bool, err error)
}

// format is one supported format: its decoder constructor and whether its
// lines are line-local.
type format struct {
	factory   func(Options) Decoder
	lineLocal bool
}

// registry is the static table of supported formats.
var registry = map[string]format{
	"auditd": {func(opts Options) Decoder { return newAuditdDecoder(opts) }, false},
	"ndjson": {newNDJSONDecoder, true},
	"sysmon": {newSysmonDecoder, true},
}

// New creates a decoder for the named format.
func New(name string, opts Options) (Decoder, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("codec: unknown format %q (have %v)", name, Formats())
	}
	return f.factory(opts), nil
}

// LineLocal reports whether the named format's lines decode independently,
// so one stream may be decoded by many decoders at once, each taking any
// subset of its lines. It is false for an unknown format.
func LineLocal(name string) bool {
	return registry[name].lineLocal
}

// Formats lists the supported format names, sorted.
func Formats() []string { return slices.Sorted(maps.Keys(registry)) }

// baseName returns the path's final element under either separator, so
// Windows executables from Sysmon and Unix paths from auditd both normalize
// to the bare image name the collector schema uses.
func baseName(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' || p[i] == '\\' {
			return p[i+1:]
		}
	}
	return p
}
