// Package wire implements the binary encoding primitives shared by the
// durable layers of the engine: the event store's record payloads
// (internal/storage) and the checkpoint state blobs every stateful component
// serialises itself into (internal/snapshot and the EncodeState/DecodeState
// split across agg, window, invariant, matcher, and engine).
//
// Encoding is append-style: writers are plain functions extending a []byte,
// so state capture composes without intermediate buffers. Decoding goes
// through Reader, a bounds-checked cursor with a sticky error: decode code
// reads field after field and checks Err once at the end, and a truncated or
// corrupted input can never panic or over-allocate — length-prefixed fields
// are validated against the bytes actually remaining before any allocation.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"saql/internal/event"
	"saql/internal/value"
)

// ---------------------------------------------------------------------------
// Appenders
// ---------------------------------------------------------------------------

// AppendUvarint appends an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends a signed (zig-zag) varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendBool appends a boolean as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendUint32 appends a fixed-width little-endian uint32 — the encoding of
// ownership-hash range bounds in the cluster wire protocol, where the fixed
// width keeps range maps trivially comparable byte-for-byte.
func AppendUint32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendFloat64 appends a float64 as 8 little-endian IEEE-754 bytes.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendTime appends an instant as unix nanoseconds.
func AppendTime(b []byte, t time.Time) []byte {
	return binary.AppendVarint(b, t.UnixNano())
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

// Reader is a bounds-checked decode cursor with a sticky error. Every getter
// returns its zero value once an error has occurred, so decoders can read a
// whole structure unconditionally and check Err once.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// NewReader creates a reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err reports the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Len reports how many bytes remain.
func (r *Reader) Len() int { return len(r.data) - r.pos }

// Fail records a decode error (the first one sticks).
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format+" at offset %d", append(args, r.pos)...)
	}
}

// Uvarint reads an unsigned varint.
//
//saql:hotpath
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a signed varint.
//
//saql:hotpath
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.Fail("bad varint")
		return 0
	}
	r.pos += n
	return v
}

// Byte reads one byte.
//
//saql:hotpath
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.Fail("truncated byte")
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// Bool reads a boolean byte (0 or 1; anything else is an error).
//
//saql:hotpath
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail("bad bool")
		return false
	}
}

// String reads a length-prefixed string. The length is validated against the
// remaining input before allocating.
//
//saql:hotpath
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(r.Len()) < n {
		r.Fail("truncated string (%d < %d)", r.Len(), n)
		return ""
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

// Bytes reads a length-prefixed byte slice (a subslice of the input; copy if
// retaining past the input's lifetime).
//
//saql:hotpath
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(r.Len()) < n {
		r.Fail("truncated bytes (%d < %d)", r.Len(), n)
		return nil
	}
	p := r.data[r.pos : r.pos+int(n) : r.pos+int(n)]
	r.pos += int(n)
	return p
}

// Uint32 reads a fixed-width little-endian uint32.
//
//saql:hotpath
func (r *Reader) Uint32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.Len() < 4 {
		r.Fail("truncated uint32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v
}

// Float64 reads 8 little-endian IEEE-754 bytes.
//
//saql:hotpath
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.Len() < 8 {
		r.Fail("truncated float64")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.pos:]))
	r.pos += 8
	return f
}

// Time reads an instant encoded as unix nanoseconds.
//
//saql:hotpath
func (r *Reader) Time() time.Time { return time.Unix(0, r.Varint()) }

// Count reads a uvarint element count and validates it against the remaining
// input, assuming each element costs at least min bytes. It bounds decoder
// allocations on corrupted or adversarial inputs: a claimed count that could
// not possibly fit in the remaining bytes fails immediately instead of
// driving a huge make().
//
//saql:hotpath
func (r *Reader) Count(min int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64(r.Len()/min)+1 {
		r.Fail("implausible count %d (only %d bytes left)", n, r.Len())
		return 0
	}
	return int(n)
}

// ---------------------------------------------------------------------------
// Value codec
// ---------------------------------------------------------------------------

// AppendValue appends a SAQL value: one kind byte plus the kind's payload.
// Set members are encoded sorted, so equal values encode identically.
func AppendValue(b []byte, v value.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case value.KindNull:
	case value.KindString:
		b = AppendString(b, v.Str())
	case value.KindInt:
		b = AppendVarint(b, v.IntVal())
	case value.KindFloat:
		b = AppendFloat64(b, v.FloatVal())
	case value.KindBool:
		b = AppendBool(b, v.BoolVal())
	case value.KindSet:
		members := v.SetMembers()
		b = AppendUvarint(b, uint64(len(members)))
		for _, m := range members {
			b = AppendString(b, m)
		}
	}
	return b
}

// ReadValue decodes one SAQL value.
func (r *Reader) ReadValue() value.Value {
	switch k := value.Kind(r.Byte()); k {
	case value.KindNull:
		return value.Null
	case value.KindString:
		return value.String(r.String())
	case value.KindInt:
		return value.Int(r.Varint())
	case value.KindFloat:
		return value.Float(r.Float64())
	case value.KindBool:
		return value.Bool(r.Bool())
	case value.KindSet:
		n := r.Count(1)
		members := make([]string, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			members = append(members, r.String())
		}
		return value.SetOf(members...)
	default:
		if r.err == nil {
			r.Fail("unknown value kind %d", k)
		}
		return value.Null
	}
}

// ---------------------------------------------------------------------------
// Entity and event codec
// ---------------------------------------------------------------------------

// AppendEntity appends a system entity: one type byte plus the type's
// fields. This is the on-disk format of the event store's records.
func AppendEntity(b []byte, e *event.Entity) []byte {
	b = append(b, byte(e.Type))
	switch e.Type {
	case event.EntityProcess:
		b = AppendString(b, e.ExeName)
		b = AppendVarint(b, int64(e.PID))
		b = AppendString(b, e.User)
		b = AppendString(b, e.CmdLine)
	case event.EntityFile:
		b = AppendString(b, e.Path)
	case event.EntityNetConn:
		b = AppendString(b, e.SrcIP)
		b = AppendVarint(b, int64(e.SrcPort))
		b = AppendString(b, e.DstIP)
		b = AppendVarint(b, int64(e.DstPort))
		b = AppendString(b, e.Protocol)
	}
	return b
}

// ReadEntity decodes one entity.
func (r *Reader) ReadEntity() event.Entity {
	var e event.Entity
	e.Type = event.EntityType(r.Byte())
	switch e.Type {
	case event.EntityProcess:
		e.ExeName = r.String()
		e.PID = int32(r.Varint())
		e.User = r.String()
		e.CmdLine = r.String()
	case event.EntityFile:
		e.Path = r.String()
	case event.EntityNetConn:
		e.SrcIP = r.String()
		e.SrcPort = int32(r.Varint())
		e.DstIP = r.String()
		e.DstPort = int32(r.Varint())
		e.Protocol = r.String()
	default:
		if r.err == nil {
			r.Fail("unknown entity type %d", e.Type)
		}
	}
	return e
}

// AppendEvent appends a full event payload: id, time, agent, subject, op,
// object, amount. Byte-compatible with the event store's record payloads.
func AppendEvent(b []byte, ev *event.Event) []byte {
	b = AppendUvarint(b, ev.ID)
	b = AppendVarint(b, ev.Time.UnixNano())
	b = AppendString(b, ev.AgentID)
	b = AppendEntity(b, &ev.Subject)
	b = append(b, byte(ev.Op))
	b = AppendEntity(b, &ev.Object)
	b = AppendFloat64(b, ev.Amount)
	return b
}

// EventHead reads the time of an event payload, in unix nanoseconds, and its
// agent id (a subslice of payload) without decoding the rest of it
// (AppendEvent writes the ID, the time, then the agent); false where the
// payload does not start that way.
func EventHead(payload []byte) (ns int64, agent []byte, ok bool) {
	_, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, nil, false
	}
	ns, m := binary.Varint(payload[n:])
	if m <= 0 {
		return 0, nil, false
	}
	n += m
	alen, k := binary.Uvarint(payload[n:])
	if k <= 0 || alen > uint64(len(payload)-n-k) {
		return 0, nil, false
	}
	n += k
	return ns, payload[n : n+int(alen)], true
}

// ReadEvent decodes one event payload.
func (r *Reader) ReadEvent() *event.Event {
	ev := &event.Event{}
	ev.ID = r.Uvarint()
	ev.Time = r.Time()
	ev.AgentID = r.String()
	ev.Subject = r.ReadEntity()
	ev.Op = event.Op(r.Byte())
	ev.Object = r.ReadEntity()
	ev.Amount = r.Float64()
	return ev
}
