// The "sysmon" codec: Sysmon operational-log records rendered as ECS-style
// JSON lines, the shape winlogbeat and compatible shippers emit. Both nested
// objects ({"process":{"pid":1}}) and dotted keys ({"process.pid":1}) are
// accepted, since both occur in the wild; a field one line spells both ways
// takes the dotted spelling's value, whatever the order of the line's keys.
//
// The Sysmon event ID (winlog.event_id, or its string form in event.code)
// selects the mapping into the ⟨subject, operation, object⟩ model:
//
//	1  ProcessCreate      parent proc  start    child proc
//	3  NetworkConnect     proc         connect  ip
//	5  ProcessTerminate   proc         end      itself
//	11 FileCreate         proc         write    file
//	23 FileDelete         proc         delete   file
//	26 FileDeleteDetected proc         delete   file
//
// Lines without an event ID fall back to the ECS event.action keyword
// (process-creation / network-connection / file-create / file-delete /
// process-terminated and their Sysmon task spellings). Records that carry
// neither, or whose ID is outside the table, decode to no event (they are
// valid log lines that simply have no SVO projection); structurally broken
// records (unparseable JSON, a mapped ID missing its required fields) are
// errors.
package codec

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"saql/internal/event"
)

func newSysmonDecoder(opts Options) Decoder {
	return &sysmonDecoder{opts: opts, tab: internTable{stats: opts.Intern, shared: opts.Table}}
}

type sysmonDecoder struct {
	opts Options
	tab  internTable
}

// ecsDoc is one parsed line with nested maps flattened to dotted keys.
type ecsDoc map[string]any

func (d *sysmonDecoder) Decode(line []byte) ([]*event.Event, error) {
	if isBlank(line) {
		return nil, nil
	}
	var raw map[string]any
	if err := json.Unmarshal(line, &raw); err != nil {
		return nil, fmt.Errorf("sysmon: %w", err)
	}
	doc := ecsDoc{}
	flattenECS("", raw, doc)

	id, ok := doc.eventID()
	if !ok {
		return nil, nil // carries no mappable event type
	}
	switch id {
	case 1, 3, 5, 11, 23, 26:
	default:
		return nil, nil // valid Sysmon record outside the SVO projection
	}

	ts, err := doc.timestamp()
	if err != nil {
		return nil, fmt.Errorf("sysmon: %w", err)
	}
	agent := doc.str("host.name")
	if agent == "" {
		agent = d.opts.DefaultAgent
	}
	if agent == "" {
		agent = "sysmon"
	}

	proc, err := doc.process("process")
	if err != nil {
		return nil, fmt.Errorf("sysmon: event_id %d: %w", id, err)
	}

	ev := &event.Event{Time: ts, AgentID: agent}
	switch id {
	case 1: // ProcessCreate: parent starts child
		parent, err := doc.process("process.parent")
		if err != nil {
			return nil, fmt.Errorf("sysmon: event_id 1: %w", err)
		}
		ev.Subject = parent
		ev.Op = event.OpStart
		ev.Object = proc
	case 3: // NetworkConnect
		dst := doc.str("destination.ip")
		if dst == "" {
			return nil, fmt.Errorf("sysmon: event_id 3: missing destination.ip")
		}
		proto := doc.str("network.transport")
		if proto == "" {
			proto = "tcp"
		}
		ev.Subject = proc
		ev.Op = event.OpConnect
		ev.Object = event.Entity{
			Type:  event.EntityNetConn,
			SrcIP: doc.str("source.ip"), SrcPort: int32(doc.num("source.port")),
			DstIP: dst, DstPort: int32(doc.num("destination.port")),
			Protocol: proto,
		}
		ev.Amount = doc.num("network.bytes")
	case 5: // ProcessTerminate
		ev.Subject = proc
		ev.Op = event.OpEnd
		ev.Object = proc
	case 11, 23, 26: // FileCreate / FileDelete / FileDeleteDetected
		path := doc.str("file.path")
		if path == "" {
			return nil, fmt.Errorf("sysmon: event_id %d: missing file.path", id)
		}
		ev.Subject = proc
		if id == 11 {
			ev.Op = event.OpWrite
		} else {
			ev.Op = event.OpDelete
		}
		ev.Object = event.Entity{Type: event.EntityFile, Path: path}
		ev.Amount = doc.num("file.size")
	}
	d.tab.intern(ev)
	return []*event.Event{ev}, nil
}

func (d *sysmonDecoder) Flush() []*event.Event { return nil }

// flattenECS folds nested JSON objects into dotted keys, leaving values
// already keyed with dots untouched, so {"process":{"pid":1}} and
// {"process.pid":1} read identically. Keys are visited in sorted order, and a
// nested object's key is a prefix of a dotted spelling of the same field, so
// the dotted spelling is written last and wins.
func flattenECS(prefix string, src map[string]any, dst ecsDoc) {
	for _, k := range slices.Sorted(maps.Keys(src)) {
		key := k
		if prefix != "" {
			key = prefix + "." + k
		}
		if m, ok := src[k].(map[string]any); ok {
			flattenECS(key, m, dst)
			continue
		}
		dst[key] = src[k]
	}
}

func (d ecsDoc) str(key string) string {
	s, _ := d[key].(string)
	return s
}

func (d ecsDoc) num(key string) float64 {
	switch v := d[key].(type) {
	case float64:
		return v
	case string:
		f, _ := strconv.ParseFloat(v, 64)
		return f
	}
	return 0
}

// eventID resolves the Sysmon event ID from winlog.event_id or event.code.
func (d ecsDoc) eventID() (int, bool) {
	if v, ok := d["winlog.event_id"]; ok {
		switch id := v.(type) {
		case float64:
			return int(id), true
		case string:
			if n, err := strconv.Atoi(id); err == nil {
				return n, true
			}
		}
	}
	if s := d.str("event.code"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			return n, true
		}
	}
	// ECS keyword fallback for shippers that drop the numeric ID.
	switch normalizeAction(d.str("event.action")) {
	case "processcreate", "processcreation":
		return 1, true
	case "networkconnect", "networkconnection":
		return 3, true
	case "processterminate", "processterminated":
		return 5, true
	case "filecreate":
		return 11, true
	case "filedelete", "filedeletedetected":
		return 23, true
	}
	return 0, false
}

// normalizeAction lowercases and strips separators and Sysmon's
// "(rule: ...)" suffix, so "Process Create (rule: ProcessCreate)",
// "process-creation", and "ProcessCreate" all compare equal.
func normalizeAction(s string) string {
	if i := strings.IndexByte(s, '('); i >= 0 {
		s = s[:i]
	}
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		case r >= 'a' && r <= 'z':
			b.WriteRune(r)
		}
	}
	return b.String()
}

// process builds a process entity from the ECS fields below prefix
// (process.* or process.parent.*).
func (d ecsDoc) process(prefix string) (event.Entity, error) {
	name := d.str(prefix + ".name")
	exe := d.str(prefix + ".executable")
	if name == "" {
		name = baseName(exe)
	}
	if name == "" {
		return event.Entity{}, fmt.Errorf("missing %s.name/%s.executable", prefix, prefix)
	}
	return event.Entity{
		Type:    event.EntityProcess,
		ExeName: name,
		PID:     int32(d.num(prefix + ".pid")),
		User:    d.str("user.name"),
		CmdLine: d.str(prefix + ".command_line"),
	}, nil
}

func (d ecsDoc) timestamp() (time.Time, error) {
	s := d.str("@timestamp")
	if s == "" {
		return time.Time{}, fmt.Errorf("missing @timestamp")
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad @timestamp %q: %w", s, err)
	}
	return t, nil
}
