// The "ndjson" codec: the engine's native newline-delimited JSON schema, a
// direct serialization of event.Event. One JSON object per line:
//
//	{"ts":"2020-02-27T09:00:00.25Z","agent":"db-1",
//	 "subject":{"exe":"cmd.exe","pid":4120,"user":"svc","cmdline":"cmd /c dump"},
//	 "op":"start",
//	 "object":{"type":"proc","exe":"osql.exe","pid":4121},
//	 "amount":1500}
//
// Field notes:
//
//   - "ts" is RFC 3339 (fractional seconds allowed) or a Unix timestamp
//     number in seconds (fractional seconds allowed), within years 0001–9999;
//   - "agent" (alias "host") defaults to Options.DefaultAgent when absent;
//   - "op" accepts every spelling event.ParseOp accepts (read, write,
//     execute/exec, start/fork, end/exit, delete/unlink, rename, connect,
//     accept, send, recv);
//   - "object.type" is "proc", "file", or "ip"; file objects carry "path",
//     ip objects carry "src_ip"/"src_port"/"dst_ip"/"dst_port"/"proto".
//
// # The scanner
//
// Decoding is one pass over the line's bytes with no reflection and no
// intermediate document. The walk dispatches on each key, records where the
// value sits (a string value is a sub-slice of the line, scanned eight bytes
// at a time; only a value with a backslash or malformed UTF-8 is rewritten,
// into a scratch buffer the decoder owns; an "amount" stays its bytes), and
// checks the grammar and every range of everything, skipped values too.
// Once the whole line has proved well-formed and the prefilter admits it,
// the one event.Event is allocated and filled: the amount is converted, the
// hot attributes resolve through the intern table straight from those
// bytes, so a repeated value costs no allocation, and only path/cmdline and
// first-sight values are copied. A line the prefilter does not admit costs
// the check and its timestamp (the skip record's time feeds the watermark):
// a malformed one still fails, and nothing is converted.
//
// What is accepted, rejected, merged or coerced is exactly what the
// encoding/json decoder this replaced did (kept as the test oracle in
// ndjson_ref_test.go): keys match exactly, then case-insensitively; a
// repeated key's last value wins, and a repeated "subject"/"object" merges
// field by field; null leaves a scalar untouched and clears an entity; a
// value of the wrong JSON type, an integer field with a fraction or exponent
// or beyond int32, and any byte after the closing brace are errors.
package codec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"saql/internal/event"
)

func newNDJSONDecoder(opts Options) Decoder {
	def := opts.DefaultAgent
	if def == "" {
		def = "ndjson"
	}
	return &ndjsonDecoder{
		tab:          internTable{stats: opts.Intern, shared: opts.Table},
		defaultAgent: def, defaultAgentBytes: []byte(def),
	}
}

// maxJSONDepth is encoding/json's nesting limit; a line nested deeper is
// malformed here as it was there.
const maxJSONDepth = 10000

type ndjsonDecoder struct {
	tab internTable
	// defaultAgent is the agentid of a line with neither "agent" nor "host":
	// Options.DefaultAgent, else the format name.
	defaultAgent      string
	defaultAgentBytes []byte
	out               [1]*event.Event // backs the slice Decode returns

	rec     rawEvent
	scratch []byte // unescaped strings of the current line; rec may point into it
	err     error  // why the current line's scan stopped
}

// rawEvent is what the scan of one line found, before anything is copied:
// byte slices point into the line (or the decoder's scratch).
type rawEvent struct {
	ts              time.Time
	tsErr           error // the last "ts" was unusable (a later, good one clears it)
	hasTS           bool
	amount          []byte // checked by floatValue, converted by fill
	agent, host, op []byte
	subj, obj       rawEntity

	// Resolved by check from op and obj.typ.
	opv     event.Op
	objType event.EntityType
}

// rawEntity is the wire form of an entity for both subject and object.
type rawEntity struct {
	present                                            bool // the line has the entity (and no later null took it back)
	typ, exe, user, cmdline, path, srcIP, dstIP, proto []byte
	pid, srcPort, dstPort                              int32
}

// entity is the subject or the object, by the scope its members are read in.
func (r *rawEvent) entity(in scope) *rawEntity {
	if in == inObject {
		return &r.obj
	}
	return &r.subj
}

// scope says whose members an object walk is looking at.
type scope uint8

const (
	inIgnored scope = iota // an unknown key's value: syntax-checked only
	inEvent
	inSubject
	inObject
)

func (d *ndjsonDecoder) Decode(line []byte) ([]*event.Event, error) {
	evs, _, _, err := d.DecodeSkipping(line, nil)
	return evs, err
}

// DecodeSkipping is Decode under the prefilter pf (nil admits every line),
// consulted between the scan and the fill with the agentid fill would
// assign.
func (d *ndjsonDecoder) DecodeSkipping(line []byte, pf Prefilter) ([]*event.Event, time.Time, bool, error) {
	if isBlank(line) {
		return nil, time.Time{}, false, nil
	}
	if err := d.scan(line); err != nil {
		return nil, time.Time{}, false, err
	}
	if pf != nil {
		agent := d.rec.agentID()
		if len(agent) == 0 {
			agent = d.defaultAgentBytes
		}
		if !pf.Admit(agent, d.rec.opv) {
			return nil, d.rec.ts, true, nil
		}
	}
	// The line's one allocation besides path/cmdline copies; made only now,
	// so a rejected or skipped line costs none.
	ev := &event.Event{}
	d.fill(ev)
	d.out[0] = ev
	return d.out[:], time.Time{}, false, nil
}

// agentID is the line's agentid: "agent", else "host", else empty for the
// decoder's default.
//
//saql:hotpath
func (r *rawEvent) agentID() []byte {
	if len(r.agent) > 0 {
		return r.agent
	}
	return r.host
}

func (d *ndjsonDecoder) Flush() []*event.Event { return nil }

// scan walks the line into d.rec and checks it describes a whole event.
//
//saql:hotpath
func (d *ndjsonDecoder) scan(b []byte) error {
	d.rec = rawEvent{}
	d.scratch = d.scratch[:0]
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return fmt.Errorf("ndjson: offset %d: want a JSON object", i)
	}
	if i = d.object(b, i, 0, inEvent); i < 0 {
		return d.err
	}
	if i = skipSpace(b, i); i != len(b) {
		return fmt.Errorf("ndjson: offset %d: data after the event object", i)
	}
	return d.rec.check()
}

// check is the schema half of scan: the members an event cannot do without.
//
//saql:hotpath
func (r *rawEvent) check() error {
	if !r.hasTS {
		return fmt.Errorf("ndjson: missing ts")
	}
	if r.tsErr != nil {
		return r.tsErr
	}
	if !r.subj.present {
		return fmt.Errorf("ndjson: missing subject")
	}
	if !r.obj.present {
		return fmt.Errorf("ndjson: missing object")
	}
	if r.opv = event.LookupOp(string(r.op)); r.opv == event.OpInvalid {
		_, err := event.ParseOp(string(r.op))
		return fmt.Errorf("ndjson: %w", err)
	}
	if len(r.subj.exe) == 0 {
		return fmt.Errorf("ndjson: missing subject.exe")
	}
	o := &r.obj
	switch string(o.typ) {
	case "proc", "process":
		r.objType = event.EntityProcess
		if len(o.exe) == 0 {
			return fmt.Errorf("ndjson: object.type=proc missing exe")
		}
	case "file":
		r.objType = event.EntityFile
		if len(o.path) == 0 {
			return fmt.Errorf("ndjson: object.type=file missing path")
		}
	case "ip", "conn", "netconn":
		r.objType = event.EntityNetConn
		if len(o.dstIP) == 0 && len(o.srcIP) == 0 {
			return fmt.Errorf("ndjson: object.type=ip missing src_ip/dst_ip")
		}
	default:
		if len(o.typ) == 0 {
			return fmt.Errorf("ndjson: missing object.type")
		}
		return fmt.Errorf("ndjson: unknown object.type %q", o.typ) //saql:coldpath the line is rejected
	}
	return nil
}

// fill builds the event from a scanned, checked line. Hot attributes are
// interned in a fixed order (agent, subject, object) so the table's counters
// do not depend on the order of keys in the line.
//
//saql:hotpath
func (d *ndjsonDecoder) fill(ev *event.Event) {
	r, t := &d.rec, &d.tab
	ev.Time = r.ts
	ev.Op = r.opv
	if len(r.amount) > 0 {
		ev.Amount, _ = strconv.ParseFloat(string(r.amount), 64) // in range: floatValue checked it
	}
	if agent := r.agentID(); len(agent) > 0 {
		ev.AgentID, ev.AgentSym = t.bytes(agent)
	} else {
		ev.AgentID, ev.AgentSym = t.val(d.defaultAgent)
	}

	s := &ev.Subject
	s.Type = event.EntityProcess
	s.ExeName, s.ExeSym = t.bytes(r.subj.exe)
	s.PID = r.subj.pid
	s.User, s.UserSym = t.bytes(r.subj.user)
	s.CmdLine = string(r.subj.cmdline)

	o, raw := &ev.Object, &r.obj
	o.Type = r.objType
	switch r.objType {
	case event.EntityProcess:
		o.ExeName, o.ExeSym = t.bytes(raw.exe)
		o.PID = raw.pid
		o.User, o.UserSym = t.bytes(raw.user)
		o.CmdLine = string(raw.cmdline)
	case event.EntityFile:
		o.Path = string(raw.path)
	case event.EntityNetConn:
		o.SrcIP, o.SrcIPSym = t.bytes(raw.srcIP)
		o.SrcPort = raw.srcPort
		o.DstIP, o.DstIPSym = t.bytes(raw.dstIP)
		o.DstPort = raw.dstPort
		if len(raw.proto) > 0 {
			o.Protocol, o.ProtoSym = t.bytes(raw.proto)
		} else {
			o.Protocol, o.ProtoSym = t.val("tcp")
		}
	}
	t.publish()
}

// ---------------------------------------------------------------------------
// The walk. Every function takes the index of the first byte of what it
// consumes and returns the index just past it, or a negative number after
// recording the reason in d.err.
// ---------------------------------------------------------------------------

func (d *ndjsonDecoder) fail(i int, what string) int {
	d.err = fmt.Errorf("ndjson: offset %d: %s", i, what)
	return -1
}

// object consumes the object opening at b[i], handing each member's value to
// member. depth counts the containers already open around it.
//
//saql:hotpath
func (d *ndjsonDecoder) object(b []byte, i, depth int, in scope) int {
	if depth >= maxJSONDepth {
		return d.fail(i, "exceeded max depth")
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return i + 1
	}
	for {
		if i == len(b) || b[i] != '"' {
			return d.fail(i, "want an object key")
		}
		var key []byte
		if key, i = d.str(b, i); i < 0 {
			return i
		}
		if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
			return d.fail(i, "want ':' after an object key")
		}
		if i = skipSpace(b, i+1); i == len(b) {
			return d.fail(i, "unexpected end of line")
		}
		if in == inIgnored {
			i = d.skip(b, i, depth+1)
		} else {
			i = d.member(b, i, depth+1, key, in)
		}
		if i < 0 {
			return i
		}
		if i = skipSpace(b, i); i == len(b) {
			return d.fail(i, "unexpected end of line")
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return i + 1
		default:
			return d.fail(i, "want ',' or '}' after an object member") //saql:coldpath the line is rejected
		}
	}
}

// foldKey lower-cases key into buf under encoding/json's name folding, which
// is Unicode simple case folding: besides ASCII letters, U+017F (long s) and
// U+212A (Kelvin sign) fold onto s and k. ok is false when the result could
// not equal a schema name anyway: longer than the longest, or not ASCII.
func foldKey(key []byte, buf *[8]byte) (lower []byte, ok bool) {
	n := 0
	for i := 0; i < len(key); {
		r, size := rune(key[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(key[i:])
			for { // the smallest rune of r's fold orbit, as json's foldRune
				r2 := unicode.SimpleFold(r)
				if r2 <= r {
					r = r2
					break
				}
				r = r2
			}
		}
		if r >= utf8.RuneSelf || n == len(buf) {
			return nil, false
		}
		if 'A' <= r && r <= 'Z' {
			r += 'a' - 'A'
		}
		buf[n] = byte(r)
		n++
		i += size
	}
	return buf[:n], true
}

// member consumes the value of the member named key: into d.rec when the
// schema knows the name, syntax-checked and dropped when it does not. Names
// match as encoding/json matches them, exactly or else case-insensitively.
//
//saql:hotpath
func (d *ndjsonDecoder) member(b []byte, i, depth int, key []byte, in scope) int {
	r := &d.rec
	if in == inEvent {
		switch string(key) {
		case "ts":
			return d.timestamp(b, i)
		case "agent":
			return d.stringValue(b, i, &r.agent)
		case "host":
			return d.stringValue(b, i, &r.host)
		case "op":
			return d.stringValue(b, i, &r.op)
		case "subject":
			return d.entityValue(b, i, inSubject)
		case "object":
			return d.entityValue(b, i, inObject)
		case "amount":
			return d.floatValue(b, i, &r.amount)
		}
	} else {
		e := r.entity(in)
		switch string(key) {
		case "type":
			return d.stringValue(b, i, &e.typ)
		case "exe":
			return d.stringValue(b, i, &e.exe)
		case "pid":
			return d.int32Value(b, i, &e.pid)
		case "user":
			return d.stringValue(b, i, &e.user)
		case "cmdline":
			return d.stringValue(b, i, &e.cmdline)
		case "path":
			return d.stringValue(b, i, &e.path)
		case "src_ip":
			return d.stringValue(b, i, &e.srcIP)
		case "dst_ip":
			return d.stringValue(b, i, &e.dstIP)
		case "src_port":
			return d.int32Value(b, i, &e.srcPort)
		case "dst_port":
			return d.int32Value(b, i, &e.dstPort)
		case "proto":
			return d.stringValue(b, i, &e.proto)
		}
	}
	var buf [8]byte
	if lower, ok := foldKey(key, &buf); ok && string(lower) != string(key) {
		return d.member(b, i, depth, lower, in)
	}
	return d.skip(b, i, depth)
}

// nullOr consumes a null, which leaves a member as it was; any other value
// here is of the wrong type for its member.
func (d *ndjsonDecoder) nullOr(b []byte, i int, want string) int {
	if b[i] != 'n' {
		return d.fail(i, want)
	}
	return d.literal(b, i, "null")
}

//saql:hotpath
func (d *ndjsonDecoder) stringValue(b []byte, i int, dst *[]byte) int {
	if b[i] != '"' {
		return d.nullOr(b, i, "want a string")
	}
	v, end := d.str(b, i)
	if end >= 0 {
		*dst = v
	}
	return end
}

// int32Value consumes an integer the way encoding/json fills an int32: a
// fraction, an exponent or a value beyond the type is an error.
//
//saql:hotpath
func (d *ndjsonDecoder) int32Value(b []byte, i int, dst *int32) int {
	j := i
	neg := b[j] == '-'
	if neg {
		j++
	}
	first := j
	var v int64
	for ; j < len(b) && '0' <= b[j] && b[j] <= '9'; j++ {
		if v <= 1<<31 { // beyond that it is out of range whatever follows
			v = v*10 + int64(b[j]-'0')
		}
	}
	if j == first {
		return d.nullOr(b, i, "want an integer")
	}
	if neg {
		v = -v
	}
	if b[first] == '0' && j-first > 1 || v != int64(int32(v)) ||
		j < len(b) && (b[j] == '.' || b[j] == 'e' || b[j] == 'E') {
		return d.fail(i, "want an integer that fits int32")
	}
	*dst = int32(v)
	return j
}

// floatValue consumes a number for a float64 member and keeps its bytes for
// fill to convert. One with no exponent and at most 308 integer digits is
// below 10^308, in range; only another is converted here, to check it.
//
//saql:hotpath
func (d *ndjsonDecoder) floatValue(b []byte, i int, dst *[]byte) int {
	end := number(b, i)
	if end < 0 {
		return d.nullOr(b, i, "want a number")
	}
	v, j := b[:end], i
	if v[j] == '-' {
		j++
	}
	ints := skipDigits(v, j)
	exp := ints // where an exponent would start
	if exp < end && v[exp] == '.' {
		exp = skipDigits(v, exp+1)
	}
	if ints-j > 308 || exp < end {
		if _, err := strconv.ParseFloat(string(v[i:]), 64); err != nil {
			return d.fail(i, "number out of range")
		}
	}
	*dst = v[i:]
	return end
}

// entityValue consumes a subject or object. A repeated one merges into what
// the earlier one set; null clears it.
//
//saql:hotpath
func (d *ndjsonDecoder) entityValue(b []byte, i int, in scope) int {
	e := d.rec.entity(in)
	if b[i] != '{' {
		*e = rawEntity{}
		return d.nullOr(b, i, "want an object")
	}
	e.present = true
	return d.object(b, i, 1, in)
}

// timestamp consumes a "ts" value. An unusable one is remembered, not
// returned: the line still stands if a later "ts" replaces it.
//
//saql:hotpath
func (d *ndjsonDecoder) timestamp(b []byte, i int) int {
	r := &d.rec
	r.hasTS = true
	var (
		t   time.Time
		err error
		end int
	)
	if b[i] == '"' {
		var s []byte
		if s, end = d.str(b, i); end < 0 {
			return end
		}
		t, err = timeFromString(s)
	} else if end = number(b, i); end >= 0 {
		t, err = timeFromNumber(b[i:end])
	} else {
		if end = d.skip(b, i, 1); end < 0 {
			return end
		}
		err = errTimeType
	}
	if err != nil {
		r.tsErr = fmt.Errorf("ndjson: bad ts %s: %w", b[i:end], err)
		return end
	}
	r.ts, r.tsErr = t, nil
	return end
}

// skip syntax-checks the value at b[i] without keeping anything of it.
//
//saql:hotpath
func (d *ndjsonDecoder) skip(b []byte, i, depth int) int {
	switch c := b[i]; {
	case c == '"':
		_, end := d.str(b, i)
		return end
	case c == '{':
		return d.object(b, i, depth, inIgnored)
	case c == '[':
		if depth >= maxJSONDepth {
			return d.fail(i, "exceeded max depth")
		}
		i = skipSpace(b, i+1)
		if i < len(b) && b[i] == ']' {
			return i + 1
		}
		for {
			if i == len(b) {
				return d.fail(i, "unexpected end of line")
			}
			if i = d.skip(b, i, depth+1); i < 0 {
				return i
			}
			if i = skipSpace(b, i); i == len(b) {
				return d.fail(i, "unexpected end of line")
			}
			switch b[i] {
			case ',':
				i = skipSpace(b, i+1)
			case ']':
				return i + 1
			default:
				return d.fail(i, "want ',' or ']' after an array element") //saql:coldpath the line is rejected
			}
		}
	case c == 't':
		return d.literal(b, i, "true")
	case c == 'f':
		return d.literal(b, i, "false")
	case c == 'n':
		return d.literal(b, i, "null")
	}
	if end := number(b, i); end >= 0 {
		return end
	}
	return d.fail(i, "want a value")
}

func (d *ndjsonDecoder) literal(b []byte, i int, word string) int {
	if len(b)-i < len(word) || string(b[i:i+len(word)]) != word {
		return d.fail(i, "want "+word)
	}
	return i + len(word)
}

// number returns the index just past the JSON number starting at b[i], or a
// negative number when there is none.
//
//saql:hotpath
func number(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return -1
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || b[i] < '0' || b[i] > '9' {
			return -1
		}
		i = skipDigits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			return -1
		}
		i = skipDigits(b, i+1)
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// str consumes the string opening at b[i] and returns its value: the bytes
// between the quotes where they already are the value, else (an escape, or
// malformed UTF-8 to be replaced) a rewrite appended to d.scratch.
//
//saql:hotpath
func (d *ndjsonDecoder) str(b []byte, i int) (val []byte, next int) {
	// Nearly every string is printable ASCII to its closing quote.
	j := plainRun(b, i+1)
	if j < len(b) && b[j] == '"' {
		return b[i+1 : j], j + 1
	}
	return d.strSlow(b, i+1, j)
}

// notPlain marks the bytes that end a run of plain string contents: the
// quote, the backslash, control characters, and anything outside ASCII.
var notPlain = func() (t [256]bool) {
	for c := range t {
		t[c] = c < ' ' || c == '"' || c == '\\' || c >= utf8.RuneSelf
	}
	return t
}()

// plainRun returns the index of the first byte from b[j] on that notPlain
// marks, or len(b), testing eight at a time. In a little-endian word w a
// plain byte borrows from none of w-0x20, (w^'"')-1 and (w^'\\')-1 and sets
// the high bit of none, any other byte sets it in one: the lowest high bit
// set is the first byte that ends the run.
//
//saql:hotpath
func plainRun(b []byte, j int) int {
	const lows, highs = 0x0101010101010101, 0x8080808080808080
	for ; j+8 <= len(b); j += 8 {
		w := binary.LittleEndian.Uint64(b[j:])
		m := ((w - ' '*lows) | ((w ^ '"'*lows) - lows) | ((w ^ '\\'*lows) - lows)) & highs
		if m != 0 {
			return j + bits.TrailingZeros64(m)>>3
		}
	}
	for j < len(b) && !notPlain[b[j]] {
		j++
	}
	return j
}

// strSlow is str for the string whose contents start at b[start] and stop
// being plain at b[i]: it checks every escape up to the closing quote and
// rewrites the contents if they need it.
func (d *ndjsonDecoder) strSlow(b []byte, start, i int) (val []byte, next int) {
	rewrite, ascii := false, true
	for ; i < len(b); i = plainRun(b, i+1) {
		switch c := b[i]; {
		case c == '"':
			val = b[start:i]
			if rewrite || !ascii && !utf8.Valid(val) {
				val = d.unescape(val)
			}
			return val, i + 1
		case c == '\\':
			rewrite = true
			if i++; i == len(b) {
				return nil, d.fail(i, "unterminated string")
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i <= 4 || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					return nil, d.fail(i, "bad \\u escape in string")
				}
				i += 4
			default:
				return nil, d.fail(i, "bad escape in string")
			}
		case c < ' ':
			return nil, d.fail(i, "control character in string")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, d.fail(i, "unterminated string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unescape rewrites string contents strSlow has checked, appending to
// d.scratch, as encoding/json unquotes them: escapes resolved, a surrogate
// pair joined, a lone surrogate and each byte of malformed UTF-8 replaced by
// U+FFFD. Earlier results stay valid: when scratch grows they keep pointing
// into the array it grew out of.
func (d *ndjsonDecoder) unescape(s []byte) []byte {
	out := d.scratch
	start := len(out)
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			switch c = s[i+1]; c {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(s[i+2:])
				i += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if t := s[i+2:]; len(t) >= 6 && t[0] == '\\' && t[1] == 'u' {
						r2 = hex4(t[2:])
					}
					if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
						i += 6
					}
				}
				out = utf8.AppendRune(out, r)
			default: // " \ /
				out = append(out, c)
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	d.scratch = out
	return out[start:len(out):len(out)]
}

func isBlank(line []byte) bool {
	for _, c := range line {
		if c != ' ' && c != '\t' && c != '\r' {
			return false
		}
	}
	return true
}
