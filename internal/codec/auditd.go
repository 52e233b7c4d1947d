// The "auditd" codec: the Linux kernel audit framework's native line format.
// One logical audit event spans several records sharing the same event ID —
// the "audit(1582794000.123:101)" timestamp:serial stamp — e.g. a SYSCALL
// record plus CWD, PATH, EXECVE, and SOCKADDR records, terminated by EOE.
// The decoder reassembles record groups by event ID (tolerating interleaved
// groups), then projects each completed group onto the ⟨subject, operation,
// object⟩ model:
//
//	execve/execveat            proc execute file   (PATH item 0, EXECVE argv)
//	fork/vfork/clone/clone3    proc start   proc   (child PID from exit=)
//	exit/exit_group            proc end     itself
//	open/openat/creat         proc read    file   (write when PATH nametype=CREATE)
//	read/pread64/readv         proc read    file   (when a PATH record names it)
//	write/pwrite64/writev      proc write   file   (when a PATH record names it)
//	unlink/unlinkat            proc delete  file   (PATH nametype=DELETE)
//	rename/renameat/renameat2  proc rename  file   (PATH nametype=CREATE, the new name)
//	connect                    proc connect ip     (SOCKADDR)
//	accept/accept4             proc accept  ip     (SOCKADDR)
//	sendto/sendmsg             proc write   ip     (SOCKADDR, amount from exit=)
//	recvfrom/recvmsg           proc read    ip     (SOCKADDR, amount from exit=)
//
// Both raw logs (numeric x86-64 syscall= values, hex saddr=) and
// `ausearch -i` interpreted logs (symbolic syscall names, braced saddr,
// date-formatted audit stamps) decode. Records for failed syscalls (success=no) and audit record types
// outside the table (LOGIN, CONFIG_CHANGE, ...) are skipped without error.
// An optional leading "node=host " (audisp remote logging) sets the event's
// AgentID; otherwise Options.DefaultAgent applies.
package codec

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"saql/internal/event"
)

// maxPendingGroups bounds the reassembly buffer. auditd emits a group's
// records back to back, so anything still open this many groups later is
// truncated; the oldest group is force-completed (and emits an error from
// Decode if it cannot build an event).
const maxPendingGroups = 64

type auditdDecoder struct {
	opts    Options
	pending map[string]*auditGroup
	order   []string // group keys in first-seen order
	tab     internTable
}

func newAuditdDecoder(opts Options) *auditdDecoder {
	return &auditdDecoder{opts: opts, tab: internTable{stats: opts.Intern, shared: opts.Table}, pending: map[string]*auditGroup{}}
}

// auditGroup accumulates the records of one audit event ID.
type auditGroup struct {
	key     string
	time    time.Time
	node    string
	syscall map[string]string // fields of the SYSCALL record
	paths   []auditPath
	sockHex string // raw saddr= payload
	execArg []string
	cwd     string
}

type auditPath struct {
	name     string
	nametype string
	item     int
}

func (d *auditdDecoder) Decode(line []byte) ([]*event.Event, error) {
	s := strings.TrimRight(string(line), "\r")
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}

	var node string
	if rest, ok := strings.CutPrefix(s, "node="); ok {
		i := strings.IndexByte(rest, ' ')
		if i < 0 {
			return nil, fmt.Errorf("auditd: record is only a node= field")
		}
		node, s = rest[:i], rest[i+1:]
	}

	rtype, stamp, body, err := splitAuditRecord(s)
	if err != nil {
		return nil, err
	}
	ts, key, err := parseAuditStamp(stamp)
	if err != nil {
		return nil, err
	}
	// Audit serials are per-host counters, so in an aggregated multi-host
	// log (audisp remote, node= prefixes) the same stamp can name different
	// events on different hosts: the node is part of the group identity.
	if node != "" {
		key = node + "\x00" + key
	}

	g := d.pending[key]
	if g == nil {
		if rtype == "EOE" {
			return nil, nil // trailing EOE for a group already emitted
		}
		g = &auditGroup{key: key, time: ts, node: node}
		d.pending[key] = g
		d.order = append(d.order, key)
	}
	if node != "" {
		g.node = node
	}

	switch rtype {
	case "SYSCALL":
		g.syscall = parseAuditFields(body)
	case "PATH":
		f := parseAuditFields(body)
		item, _ := strconv.Atoi(f["item"])
		g.paths = append(g.paths, auditPath{name: auditString(f["name"]), nametype: f["nametype"], item: item})
	case "SOCKADDR":
		f := parseAuditFields(body)
		g.sockHex = f["saddr"]
	case "EXECVE":
		f := parseAuditFields(body)
		argc, _ := strconv.Atoi(f["argc"])
		for i := 0; i < argc; i++ {
			if a, ok := f["a"+strconv.Itoa(i)]; ok {
				g.execArg = append(g.execArg, auditString(a))
			}
		}
	case "CWD":
		f := parseAuditFields(body)
		g.cwd = auditString(f["cwd"])
	case "EOE", "PROCTITLE":
		// PROCTITLE is the last record auditd writes for a group; EOE is the
		// explicit kernel terminator. Either completes the group.
		return d.complete(key)
	default:
		// LOGIN, CONFIG_CHANGE, USER_*, ...: not part of the SVO projection.
	}

	// Evict the oldest group if the buffer is full: its terminator is lost
	// (truncated capture), so force-complete it with what arrived.
	if len(d.pending) > maxPendingGroups {
		oldest := d.order[0]
		evs, err := d.complete(oldest)
		if err != nil {
			return evs, fmt.Errorf("auditd: truncated record group %s: %w", oldest, err)
		}
		return evs, nil
	}
	return nil, nil
}

// Flush force-completes every buffered group in arrival order, dropping the
// ones too incomplete to build an event.
func (d *auditdDecoder) Flush() []*event.Event {
	keys := append([]string(nil), d.order...) // complete() mutates d.order
	var out []*event.Event
	for _, key := range keys {
		if _, ok := d.pending[key]; !ok {
			continue
		}
		evs, _ := d.complete(key)
		out = append(out, evs...)
	}
	return out
}

// complete removes the group and builds its event.
func (d *auditdDecoder) complete(key string) ([]*event.Event, error) {
	g, ok := d.pending[key]
	if !ok {
		return nil, nil
	}
	delete(d.pending, key)
	for i, k := range d.order {
		if k == key {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	return d.buildEvent(g)
}

func (d *auditdDecoder) buildEvent(g *auditGroup) ([]*event.Event, error) {
	if g.syscall == nil {
		return nil, nil // PATH/SOCKADDR records without their SYSCALL: drop
	}
	sc := g.syscall
	if sc["success"] == "no" {
		return nil, nil
	}
	name, err := syscallName(sc["syscall"])
	if err != nil {
		return nil, fmt.Errorf("auditd: group %s: %w", g.key, err)
	}

	pid64, err := strconv.ParseInt(sc["pid"], 10, 32)
	if err != nil {
		return nil, fmt.Errorf("auditd: group %s: bad pid %q", g.key, sc["pid"])
	}
	exe := auditString(sc["exe"])
	comm := auditString(sc["comm"])
	subjName := baseName(exe)
	if subjName == "" {
		subjName = comm
	}
	if subjName == "" {
		return nil, fmt.Errorf("auditd: group %s: no exe/comm in SYSCALL record", g.key)
	}
	subj := event.Entity{Type: event.EntityProcess, ExeName: subjName, PID: int32(pid64), User: sc["uid"]}

	exit, _ := strconv.ParseFloat(sc["exit"], 64)
	agent := g.node
	if agent == "" {
		agent = d.opts.DefaultAgent
	}
	if agent == "" {
		agent = "auditd"
	}
	ev := &event.Event{Time: g.time, AgentID: agent, Subject: subj}

	fileObj := func(p auditPath) event.Entity {
		return event.Entity{Type: event.EntityFile, Path: g.absPath(p.name)}
	}

	switch name {
	case "execve", "execveat":
		p, ok := g.pathItem(0)
		if !ok {
			return nil, fmt.Errorf("auditd: group %s: execve without PATH record", g.key)
		}
		ev.Op = event.OpExecute
		ev.Object = fileObj(p)
		ev.Subject.CmdLine = strings.Join(g.execArg, " ")
	case "fork", "vfork", "clone", "clone3":
		if exit <= 0 {
			return nil, fmt.Errorf("auditd: group %s: %s without child pid in exit=", g.key, name)
		}
		ev.Op = event.OpStart
		// The child starts as a copy of the parent image; a subsequent
		// execve group reports the program it becomes.
		ev.Object = event.Entity{Type: event.EntityProcess, ExeName: subjName, PID: int32(exit)}
	case "exit", "exit_group":
		ev.Op = event.OpEnd
		ev.Object = subj
	case "open", "openat", "openat2", "creat":
		p, ok := g.lastPath()
		if !ok {
			return nil, fmt.Errorf("auditd: group %s: %s without PATH record", g.key, name)
		}
		ev.Op = event.OpRead
		// Write when the file is created (PATH nametype) or opened with a
		// writable access mode (an overwrite of an existing file leaves
		// nametype=NORMAL; the flags register is the only signal).
		if name == "creat" || g.hasNametype("CREATE") || openForWrite(name, sc) {
			ev.Op = event.OpWrite
			if cp, ok := g.pathNametype("CREATE"); ok {
				p = cp
			}
		}
		ev.Object = fileObj(p)
	case "read", "pread64", "readv", "write", "pwrite64", "writev":
		p, ok := g.lastPath()
		if !ok {
			// fd-based I/O with no PATH record attached: no object to name.
			return nil, fmt.Errorf("auditd: group %s: %s without PATH record", g.key, name)
		}
		ev.Op = event.OpRead
		if strings.HasPrefix(name, "write") || strings.HasPrefix(name, "pwrite") {
			ev.Op = event.OpWrite
		}
		ev.Object = fileObj(p)
		ev.Amount = exit
	case "unlink", "unlinkat":
		p, ok := g.pathNametype("DELETE")
		if !ok {
			if p, ok = g.lastPath(); !ok {
				return nil, fmt.Errorf("auditd: group %s: %s without PATH record", g.key, name)
			}
		}
		ev.Op = event.OpDelete
		ev.Object = fileObj(p)
	case "rename", "renameat", "renameat2":
		p, ok := g.pathNametype("CREATE")
		if !ok {
			if p, ok = g.lastPath(); !ok {
				return nil, fmt.Errorf("auditd: group %s: %s without PATH record", g.key, name)
			}
		}
		ev.Op = event.OpRename
		ev.Object = fileObj(p)
	case "connect", "accept", "accept4", "sendto", "sendmsg", "recvfrom", "recvmsg":
		conn, err := parseSockaddr(g.sockHex)
		if err != nil {
			return nil, fmt.Errorf("auditd: group %s: %s: %w", g.key, name, err)
		}
		switch name {
		case "connect":
			ev.Op = event.OpConnect
		case "accept", "accept4":
			ev.Op = event.OpAccept
		case "sendto", "sendmsg":
			ev.Op = event.OpWrite
			ev.Amount = exit
		default:
			ev.Op = event.OpRead
			ev.Amount = exit
		}
		ev.Object = conn
	default:
		return nil, nil // syscall outside the event taxonomy (getpid, mmap, ...)
	}
	d.tab.intern(ev)
	return []*event.Event{ev}, nil
}

// ---------------------------------------------------------------------------
// Group helpers
// ---------------------------------------------------------------------------

func (g *auditGroup) pathItem(item int) (auditPath, bool) {
	for _, p := range g.paths {
		if p.item == item {
			return p, true
		}
	}
	return auditPath{}, false
}

func (g *auditGroup) pathNametype(nt string) (auditPath, bool) {
	for _, p := range g.paths {
		if p.nametype == nt {
			return p, true
		}
	}
	return auditPath{}, false
}

func (g *auditGroup) hasNametype(nt string) bool {
	_, ok := g.pathNametype(nt)
	return ok
}

// lastPath returns the highest-item PATH record: for open/openat the opened
// file follows its parent directory record.
func (g *auditGroup) lastPath() (auditPath, bool) {
	if len(g.paths) == 0 {
		return auditPath{}, false
	}
	best := g.paths[0]
	for _, p := range g.paths[1:] {
		if p.item >= best.item {
			best = p
		}
	}
	return best, true
}

// absPath resolves a relative PATH name against the group's CWD record.
func (g *auditGroup) absPath(name string) string {
	if name == "" || name[0] == '/' || g.cwd == "" {
		return name
	}
	return strings.TrimSuffix(g.cwd, "/") + "/" + name
}

// ---------------------------------------------------------------------------
// Record-level parsing
// ---------------------------------------------------------------------------

// splitAuditRecord splits `type=SYSCALL msg=audit(TS:SERIAL): k=v ...` into
// the record type, the audit stamp, and the field body.
func splitAuditRecord(s string) (rtype, stamp, body string, err error) {
	rest, ok := strings.CutPrefix(s, "type=")
	if !ok {
		return "", "", "", fmt.Errorf("auditd: line does not start with type=")
	}
	i := strings.IndexByte(rest, ' ')
	if i < 0 {
		return "", "", "", fmt.Errorf("auditd: record has no msg field")
	}
	rtype, rest = rest[:i], strings.TrimLeft(rest[i+1:], " ")
	msg, ok := strings.CutPrefix(rest, "msg=audit(")
	if !ok {
		return "", "", "", fmt.Errorf("auditd: record has no msg=audit(...) stamp")
	}
	j := strings.IndexByte(msg, ')')
	if j < 0 {
		return "", "", "", fmt.Errorf("auditd: unterminated audit stamp")
	}
	stamp = msg[:j]
	body = strings.TrimPrefix(msg[j+1:], ":")
	return rtype, stamp, strings.TrimSpace(body), nil
}

// parseAuditStamp splits an audit stamp into the event time and the
// reassembly key (the full stamp: serials can wrap across long captures, so
// the timestamp stays part of the identity). Raw logs use Unix seconds
// ("1582794000.123:101"); `ausearch -i` rewrites the stamp to a date form
// ("02/27/2020 09:00:00.123:101", interpreted as UTC here), so the serial
// is everything after the LAST colon.
func parseAuditStamp(stamp string) (time.Time, string, error) {
	i := strings.LastIndexByte(stamp, ':')
	if i < 0 {
		return time.Time{}, "", fmt.Errorf("auditd: bad audit stamp %q", stamp)
	}
	tsPart := stamp[:i]
	if strings.ContainsRune(tsPart, '/') {
		for _, layout := range []string{"01/02/2006 15:04:05.000", "01/02/2006 15:04:05"} {
			if t, err := time.Parse(layout, tsPart); err == nil {
				return t.UTC(), stamp, nil
			}
		}
		return time.Time{}, "", fmt.Errorf("auditd: bad interpreted audit timestamp %q", tsPart)
	}
	secs, err := strconv.ParseFloat(tsPart, 64)
	if err != nil {
		return time.Time{}, "", fmt.Errorf("auditd: bad audit timestamp %q", tsPart)
	}
	t, err := unixFloat(secs)
	if err != nil {
		return time.Time{}, "", fmt.Errorf("auditd: bad audit timestamp %q: %w", tsPart, err)
	}
	return t, stamp, nil
}

// parseAuditFields splits a record body into key=value pairs. Values may be
// bare (pid=4120), double-quoted (exe="/usr/bin/bash"), braced interpreted
// forms (saddr={ fam=inet laddr=1.2.3.4 lport=443 }), or unquoted hex.
func parseAuditFields(body string) map[string]string {
	out := map[string]string{}
	for i := 0; i < len(body); {
		for i < len(body) && body[i] == ' ' {
			i++
		}
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 {
			break
		}
		key := body[i : i+eq]
		i += eq + 1
		var val string
		switch {
		case i < len(body) && body[i] == '"':
			j := strings.IndexByte(body[i+1:], '"')
			if j < 0 {
				val = body[i:]
				i = len(body)
			} else {
				val = body[i : i+j+2]
				i += j + 2
			}
		case i < len(body) && body[i] == '{':
			j := strings.IndexByte(body[i:], '}')
			if j < 0 {
				val = body[i:]
				i = len(body)
			} else {
				val = body[i : i+j+1]
				i += j + 1
			}
		default:
			j := strings.IndexByte(body[i:], ' ')
			if j < 0 {
				val = body[i:]
				i = len(body)
			} else {
				val = body[i : i+j]
				i += j
			}
		}
		if strings.ContainsAny(key, " \t") {
			continue // resync after an unparseable run
		}
		out[key] = val
	}
	return out
}

// auditString interprets one audit field value: double-quoted strings are
// unquoted, unquoted hex runs are decoded (the kernel hex-encodes values
// containing spaces, quotes, or non-ASCII), "(null)" becomes empty.
//
// The hex decode only applies when the result is printable text (spaces and
// tabs allowed): the kernel encodes because of a space or quote far more
// often than because of control bytes, and the guard keeps legitimate
// hex-looking names in interpreted logs — comm=dd, files named "beef" —
// from being destroyed (they decode to non-printable bytes and are kept
// verbatim).
func auditString(v string) string {
	if v == "" || v == "(null)" || v == "null" {
		return ""
	}
	if v[0] == '"' {
		return strings.TrimSuffix(v[1:], `"`)
	}
	if len(v) >= 2 {
		if b, err := hex.DecodeString(v); err == nil && isPrintableText(b) {
			return string(b)
		}
	}
	return v
}

func isPrintableText(b []byte) bool {
	if len(b) == 0 || !utf8.Valid(b) {
		return false
	}
	for _, r := range string(b) {
		if (r < 0x20 && r != '\t') || r == 0x7f {
			return false
		}
	}
	return true
}

// parseSockaddr decodes a SOCKADDR saddr= value: either the kernel's raw hex
// sockaddr (family uint16 LE, then per-family layout) or ausearch's
// interpreted braced form `{ fam=inet laddr=172.16.0.129 lport=443 }`.
func parseSockaddr(saddr string) (event.Entity, error) {
	if saddr == "" {
		return event.Entity{}, fmt.Errorf("no SOCKADDR record")
	}
	conn := event.Entity{Type: event.EntityNetConn, Protocol: "tcp"}
	if saddr[0] == '{' {
		f := parseAuditFields(strings.Trim(saddr, "{} "))
		ip := f["laddr"]
		if ip == "" {
			ip = f["addr"]
		}
		port, _ := strconv.Atoi(f["lport"])
		if ip == "" {
			return event.Entity{}, fmt.Errorf("interpreted saddr %q has no address", saddr)
		}
		conn.DstIP, conn.DstPort = ip, int32(port)
		return conn, nil
	}
	raw, err := hex.DecodeString(saddr)
	if err != nil || len(raw) < 2 {
		return event.Entity{}, fmt.Errorf("bad saddr %q", saddr)
	}
	family := int(raw[0]) | int(raw[1])<<8
	switch family {
	case 2: // AF_INET: sa_family, port BE, 4-byte address
		if len(raw) < 8 {
			return event.Entity{}, fmt.Errorf("short AF_INET saddr %q", saddr)
		}
		conn.DstPort = int32(raw[2])<<8 | int32(raw[3])
		conn.DstIP = fmt.Sprintf("%d.%d.%d.%d", raw[4], raw[5], raw[6], raw[7])
	case 10: // AF_INET6: sa_family, port BE, flowinfo, 16-byte address
		if len(raw) < 24 {
			return event.Entity{}, fmt.Errorf("short AF_INET6 saddr %q", saddr)
		}
		conn.DstPort = int32(raw[2])<<8 | int32(raw[3])
		parts := make([]string, 8)
		for i := 0; i < 8; i++ {
			parts[i] = fmt.Sprintf("%x", int(raw[8+2*i])<<8|int(raw[9+2*i]))
		}
		conn.DstIP = strings.Join(parts, ":")
	default:
		return event.Entity{}, fmt.Errorf("unsupported saddr family %d", family)
	}
	return conn, nil
}

// openForWrite inspects the open/openat flags register (a1 / a2, raw hex)
// for a writable access mode: O_WRONLY (1) or O_RDWR (2). Interpreted logs
// may rewrite the registers; an unparseable register reports false and the
// PATH-nametype heuristic stands alone.
func openForWrite(name string, sc map[string]string) bool {
	var reg string
	switch name {
	case "open":
		reg = sc["a1"]
	case "openat":
		reg = sc["a2"]
	default:
		return false // openat2 passes flags in a struct, not a register
	}
	f, err := strconv.ParseUint(reg, 16, 64)
	if err != nil {
		return false
	}
	return f&0b11 == 1 || f&0b11 == 2
}

// syscallName resolves a syscall= value: symbolic names (interpreted logs)
// pass through, numeric values resolve via the x86-64 table.
func syscallName(v string) (string, error) {
	if v == "" {
		return "", fmt.Errorf("SYSCALL record has no syscall field")
	}
	if v[0] < '0' || v[0] > '9' {
		return strings.ToLower(v), nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return "", fmt.Errorf("bad syscall %q", v)
	}
	if name, ok := sysX86_64[n]; ok {
		return name, nil
	}
	return fmt.Sprintf("sys_%d", n), nil
}

// sysX86_64 maps the x86-64 syscall numbers the event taxonomy covers.
var sysX86_64 = map[int]string{
	0:   "read",
	1:   "write",
	2:   "open",
	17:  "pread64",
	18:  "pwrite64",
	19:  "readv",
	20:  "writev",
	42:  "connect",
	43:  "accept",
	44:  "sendto",
	45:  "recvfrom",
	46:  "sendmsg",
	47:  "recvmsg",
	56:  "clone",
	57:  "fork",
	58:  "vfork",
	59:  "execve",
	60:  "exit",
	82:  "rename",
	85:  "creat",
	87:  "unlink",
	231: "exit_group",
	257: "openat",
	263: "unlinkat",
	264: "renameat",
	288: "accept4",
	316: "renameat2",
	322: "execveat",
	435: "clone3",
	437: "openat2",
}
