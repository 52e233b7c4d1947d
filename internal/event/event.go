// Package event defines the system monitoring data model of the paper:
// system entities (processes, files, network connections) and system events
// represented as ⟨subject, operation, object⟩ (SVO) triples, each occurring on
// a particular host (agent) at a particular time and carrying the
// security-related attributes the SAQL language can constrain and return
// (exe_name, PID, file name, src/dst IP, port, amount, ...).
package event

import (
	"fmt"
	"time"
)

// EntityType identifies the kind of a system entity.
type EntityType uint8

// System entity types. Following the paper's data model, subjects are
// processes and objects are files, processes, or network connections.
const (
	EntityInvalid EntityType = iota
	EntityProcess
	EntityFile
	EntityNetConn
)

// String returns the SAQL keyword for the entity type (proc, file, ip).
func (t EntityType) String() string {
	switch t {
	case EntityProcess:
		return "proc"
	case EntityFile:
		return "file"
	case EntityNetConn:
		return "ip"
	default:
		return "invalid"
	}
}

// ParseEntityType maps a SAQL keyword to an entity type.
func ParseEntityType(s string) (EntityType, error) {
	switch s {
	case "proc", "process":
		return EntityProcess, nil
	case "file":
		return EntityFile, nil
	case "ip", "conn", "netconn":
		return EntityNetConn, nil
	default:
		return EntityInvalid, fmt.Errorf("event: unknown entity type %q", s)
	}
}

// Op is a system call level operation recorded between subject and object.
type Op uint8

// Operations in the event taxonomy. File events use read/write/execute/
// delete/rename; process events use start/end; network events use
// read/write (the paper treats sends as writes to an ip entity and receives
// as reads) plus connect/accept for connection setup.
const (
	OpInvalid Op = iota
	OpRead
	OpWrite
	OpExecute
	OpStart
	OpEnd
	OpDelete
	OpRename
	OpConnect
	OpAccept
)

// String returns the SAQL keyword for the operation.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpExecute:
		return "execute"
	case OpStart:
		return "start"
	case OpEnd:
		return "end"
	case OpDelete:
		return "delete"
	case OpRename:
		return "rename"
	case OpConnect:
		return "connect"
	case OpAccept:
		return "accept"
	default:
		return "invalid"
	}
}

// ParseOp maps a SAQL keyword to an operation.
func ParseOp(s string) (Op, error) {
	if op := LookupOp(s); op != OpInvalid {
		return op, nil
	}
	return OpInvalid, fmt.Errorf("event: unknown operation %q", s)
}

// LookupOp is ParseOp without the error: OpInvalid for an unknown keyword.
// s does not escape, so a decoder can pass string(bytes) without allocating.
func LookupOp(s string) Op {
	switch s {
	case "read", "recv":
		return OpRead
	case "write", "send":
		return OpWrite
	case "execute", "exec":
		return OpExecute
	case "start", "fork", "spawn":
		return OpStart
	case "end", "exit", "terminate":
		return OpEnd
	case "delete", "unlink":
		return OpDelete
	case "rename":
		return OpRename
	case "connect":
		return OpConnect
	case "accept":
		return OpAccept
	default:
		return OpInvalid
	}
}

// Type is the event category derived from the object entity.
type Type uint8

// Event categories per the paper: file events, process events, network events.
const (
	TypeInvalid Type = iota
	TypeFile
	TypeProcess
	TypeNetwork
)

// String names the event category.
func (t Type) String() string {
	switch t {
	case TypeFile:
		return "file"
	case TypeProcess:
		return "process"
	case TypeNetwork:
		return "network"
	default:
		return "invalid"
	}
}

// Entity is a system entity instance observed by a collection agent. The
// populated fields depend on Type; unset fields are zero.
//
// The fields are laid out hot first and without holes: the scalars (type,
// pid, symbol IDs, ports) fill the first 40 bytes, then the strings that
// predicates and identities read (exe name, destination IP, path), and last
// the rarely read ones (user, command line, source IP, protocol). Keep the
// order, and write every Entity literal keyed: TestEventLayout holds both.
type Entity struct {
	Type EntityType
	PID  int32

	// Symbol IDs for the hot string attributes below, assigned by the codec
	// intern tables from the process-global dictionary (internal/symtab).
	// Zero means "no symbol" — the value was never interned (programmatic
	// events, table overflow, non-ASCII) — and compiled predicates fall back
	// to string comparison with identical results. Symbol IDs are
	// process-local and never persisted: the wire/journal/snapshot codecs
	// serialise the named string fields only.
	ExeSym   uint32
	UserSym  uint32
	SrcIPSym uint32
	DstIPSym uint32
	ProtoSym uint32

	// Network connection ports.
	SrcPort int32
	DstPort int32

	ExeName string // process: executable name, e.g. "osql.exe"
	DstIP   string // network connection: destination address
	Path    string // file: full path; the "name" attribute matches the base name too

	// Rarely read attributes.
	User     string // process
	CmdLine  string // process
	SrcIP    string // network connection
	Protocol string // network connection: "tcp" or "udp"
}

// Process constructs a process entity.
func Process(exe string, pid int32) Entity {
	return Entity{Type: EntityProcess, ExeName: exe, PID: pid}
}

// File constructs a file entity.
func File(path string) Entity {
	return Entity{Type: EntityFile, Path: path}
}

// NetConn constructs a network connection entity.
func NetConn(srcIP string, srcPort int32, dstIP string, dstPort int32) Entity {
	return Entity{Type: EntityNetConn, SrcIP: srcIP, SrcPort: srcPort, DstIP: dstIP, DstPort: dstPort, Protocol: "tcp"}
}

// Same reports whether e and o are the same entity: the identity on which
// the multievent matcher joins a variable shared by several event patterns
// (e.g. the same f1 appearing in two patterns of Query 1). It compares the
// fields Key renders — the type, exe and pid, path, or 4-tuple — and ignores
// the rest (user, command line, protocol, symbol ids).
func (e *Entity) Same(o *Entity) bool {
	switch e.Type {
	case EntityProcess:
		return o.Type == EntityProcess && e.ExeName == o.ExeName && e.PID == o.PID
	case EntityFile:
		return o.Type == EntityFile && e.Path == o.Path
	case EntityNetConn:
		return o.Type == EntityNetConn && e.SrcIP == o.SrcIP && e.SrcPort == o.SrcPort &&
			e.DstIP == o.DstIP && e.DstPort == o.DstPort
	default:
		return o.Type != EntityProcess && o.Type != EntityFile && o.Type != EntityNetConn
	}
}

// Key renders the entity's identity (see Same) as a string: the binding key
// a checkpointed partial match carries for each of its variables. It is not
// the join identity — the matcher joins with Same — and two connections
// whose addresses hold ':' or '>' can render alike while Same tells them
// apart.
func (e *Entity) Key() string {
	switch e.Type {
	case EntityProcess:
		return fmt.Sprintf("p:%s/%d", e.ExeName, e.PID)
	case EntityFile:
		return "f:" + e.Path
	case EntityNetConn:
		return fmt.Sprintf("n:%s:%d>%s:%d", e.SrcIP, e.SrcPort, e.DstIP, e.DstPort)
	default:
		return "?"
	}
}

// DefaultAttr returns the value of the entity's default attribute — the one a
// bare string constraint like ["%osql.exe"] matches against: exe_name for
// processes, path for files, dstip for connections.
func (e *Entity) DefaultAttr() string {
	switch e.Type {
	case EntityProcess:
		return e.ExeName
	case EntityFile:
		return e.Path
	case EntityNetConn:
		return e.DstIP
	default:
		return ""
	}
}

// String renders the entity compactly for alert output.
func (e *Entity) String() string {
	switch e.Type {
	case EntityProcess:
		return fmt.Sprintf("proc(%s pid=%d)", e.ExeName, e.PID)
	case EntityFile:
		return fmt.Sprintf("file(%s)", e.Path)
	case EntityNetConn:
		return fmt.Sprintf("ip(%s:%d->%s:%d)", e.SrcIP, e.SrcPort, e.DstIP, e.DstPort)
	default:
		return "entity(?)"
	}
}

// Event is a single system monitoring record: subject performed Op on object
// at Time on host AgentID. Amount carries the data size in bytes for
// read/write events (file I/O and network transfer volume).
//
// The fields are laid out hot first and without holes: ID, Time, Op,
// AgentSym, Amount and AgentID fill the first 64-byte cache line — what the
// router's match, the resolve step and a shard's seal read of every event —
// and the two entities follow. Keep the order, and write every Event literal
// keyed: TestEventLayout holds both.
type Event struct {
	ID   uint64 // globally unique, assigned by the feed
	Time time.Time
	Op   Op

	// AgentSym is AgentID's process-local symbol ID (see Entity's symbol
	// fields); zero means no symbol and is always valid.
	AgentSym uint32

	Amount  float64 // bytes moved, when applicable
	AgentID string  // host identifier
	Subject Entity  // always a process
	Object  Entity
}

// EventType categorises the event by its object entity.
func (ev *Event) EventType() Type {
	switch ev.Object.Type {
	case EntityFile:
		return TypeFile
	case EntityProcess:
		return TypeProcess
	case EntityNetConn:
		return TypeNetwork
	default:
		return TypeInvalid
	}
}

// String renders the event as a single human-readable line, the format the
// command-line UI prints when echoing matched events.
func (ev *Event) String() string {
	return fmt.Sprintf("[%s %s] %s %s %s amount=%.0f",
		ev.Time.Format("15:04:05.000"), ev.AgentID, ev.Subject.String(), ev.Op, ev.Object.String(), ev.Amount)
}
