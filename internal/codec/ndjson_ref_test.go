package codec

// The reflection-based NDJSON decoder that shipped until the byte scanner in
// ndjson.go replaced it, kept verbatim as the oracle the scanner is compared
// against (FuzzNDJSONDifferential, the tables in ndjson_test.go): whatever
// encoding/json accepts, rejects, merges or coerces, this does, and the
// scanner must too. Its only edits are the type names and the shared
// timestamp range guard (unixFloat, checkTimeRange).

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"saql/internal/event"
)

// newRefNDJSON builds the oracle with its own intern table.
func newRefNDJSON(opts Options) *refNDJSONDecoder {
	return &refNDJSONDecoder{opts: opts, tab: internTable{stats: opts.Intern}}
}

type refNDJSONDecoder struct {
	opts Options
	tab  internTable
}

// refJSONEntity is the wire form of an entity for both subject and object.
type refJSONEntity struct {
	Type    string `json:"type"`
	Exe     string `json:"exe"`
	PID     int32  `json:"pid"`
	User    string `json:"user"`
	CmdLine string `json:"cmdline"`
	Path    string `json:"path"`
	SrcIP   string `json:"src_ip"`
	DstIP   string `json:"dst_ip"`
	SrcPort int32  `json:"src_port"`
	DstPort int32  `json:"dst_port"`
	Proto   string `json:"proto"`
}

type refJSONEvent struct {
	TS      json.RawMessage `json:"ts"`
	Agent   string          `json:"agent"`
	Host    string          `json:"host"` // alias for agent
	Subject *refJSONEntity  `json:"subject"`
	Op      string          `json:"op"`
	Object  *refJSONEntity  `json:"object"`
	Amount  float64         `json:"amount"`
}

func (d *refNDJSONDecoder) Decode(line []byte) ([]*event.Event, error) {
	if isBlank(line) {
		return nil, nil
	}
	var rec refJSONEvent
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, fmt.Errorf("ndjson: %w", err)
	}
	ts, err := refParseTimestamp(rec.TS)
	if err != nil {
		return nil, fmt.Errorf("ndjson: %w", err)
	}
	if rec.Subject == nil {
		return nil, fmt.Errorf("ndjson: missing subject")
	}
	if rec.Object == nil {
		return nil, fmt.Errorf("ndjson: missing object")
	}
	op, err := event.ParseOp(rec.Op)
	if err != nil {
		return nil, fmt.Errorf("ndjson: %w", err)
	}
	subj := event.Entity{
		Type:    event.EntityProcess,
		ExeName: rec.Subject.Exe,
		PID:     rec.Subject.PID,
		User:    rec.Subject.User,
		CmdLine: rec.Subject.CmdLine,
	}
	if subj.ExeName == "" {
		return nil, fmt.Errorf("ndjson: missing subject.exe")
	}
	obj, err := rec.Object.toEntity()
	if err != nil {
		return nil, fmt.Errorf("ndjson: %w", err)
	}
	agent := rec.Agent
	if agent == "" {
		agent = rec.Host
	}
	if agent == "" {
		agent = d.opts.DefaultAgent
	}
	if agent == "" {
		agent = "ndjson"
	}
	ev := &event.Event{
		Time:    ts,
		AgentID: agent,
		Subject: subj,
		Op:      op,
		Object:  obj,
		Amount:  rec.Amount,
	}
	d.tab.intern(ev)
	return []*event.Event{ev}, nil
}

func (d *refNDJSONDecoder) Flush() []*event.Event { return nil }

func (e *refJSONEntity) toEntity() (event.Entity, error) {
	switch e.Type {
	case "proc", "process":
		if e.Exe == "" {
			return event.Entity{}, fmt.Errorf("object.type=proc missing exe")
		}
		return event.Entity{Type: event.EntityProcess, ExeName: e.Exe, PID: e.PID, User: e.User, CmdLine: e.CmdLine}, nil
	case "file":
		if e.Path == "" {
			return event.Entity{}, fmt.Errorf("object.type=file missing path")
		}
		return event.Entity{Type: event.EntityFile, Path: e.Path}, nil
	case "ip", "conn", "netconn":
		if e.DstIP == "" && e.SrcIP == "" {
			return event.Entity{}, fmt.Errorf("object.type=ip missing src_ip/dst_ip")
		}
		proto := e.Proto
		if proto == "" {
			proto = "tcp"
		}
		return event.Entity{
			Type:  event.EntityNetConn,
			SrcIP: e.SrcIP, SrcPort: e.SrcPort,
			DstIP: e.DstIP, DstPort: e.DstPort,
			Protocol: proto,
		}, nil
	case "":
		return event.Entity{}, fmt.Errorf("missing object.type")
	default:
		return event.Entity{}, fmt.Errorf("unknown object.type %q", e.Type)
	}
}

// refParseTimestamp accepts RFC 3339 strings and Unix-seconds numbers
// (fractional seconds allowed in both).
func refParseTimestamp(raw json.RawMessage) (time.Time, error) {
	if len(raw) == 0 {
		return time.Time{}, fmt.Errorf("missing ts")
	}
	if raw[0] == '"' {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return time.Time{}, fmt.Errorf("bad ts: %w", err)
		}
		t, err := time.Parse(time.RFC3339Nano, s)
		if err == nil {
			err = checkTimeRange(t)
		}
		if err != nil {
			return time.Time{}, fmt.Errorf("bad ts %q: %w", s, err)
		}
		return t, nil
	}
	secs, err := strconv.ParseFloat(string(raw), 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad ts %s", raw)
	}
	t, err := unixFloat(secs)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad ts %s: %w", raw, err)
	}
	return t, nil
}
