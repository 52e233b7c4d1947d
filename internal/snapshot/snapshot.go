// Package snapshot implements the durable checkpoint file format: a
// versioned, CRC-checked container holding one consistent cut of an engine,
// written atomically (temp file + rename) next to the event store's
// segments, so a checkpoint directory is self-contained: the snapshot names
// a stream offset, and the segments hold the journaled tail to replay.
//
// # File layout
//
//	magic   [8]byte  "SAQLSNAP"
//	version uint16   little-endian (see Version)
//	length  uvarint  payload byte count
//	payload []byte   TakenAt (0: none), Offset, Shards, then sections
//	crc     uint32   little-endian CRC-32 (IEEE) of payload
//
// A section is a tag, a section version (uvarints) and a length-prefixed
// body: tag 1 "queries" (v1: per query its name, source, flags, labels and
// state blobs in shard order), tag 2 "tenants" (v1: quotas and accounting),
// written in tag order. The reader takes each known tag at most once and an
// absent one as empty; an unknown tag, or a known one at a version it does
// not read, is a *VersionError naming the section, never skipped. So a
// format change adds a section, or bumps one section's version.
//
// Version 3 opens through one upgrade reader (readV3). Anything else fails
// with a *VersionError; bad magic, truncation, a CRC mismatch, a duplicate
// section or trailing bytes with a *CorruptError: a snapshot is never
// partially applied or silently misread.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"

	"saql/internal/wire"
)

// Magic identifies a snapshot file.
const Magic = "SAQLSNAP"

// Version is the format version this build writes; it also reads versionV3.
// Versions 1 (the pre-release prototype) and 2 (before tenant metadata)
// cannot be migrated.
const Version = 4

// The last unsectioned version, the section tags in write order, and the
// one section version this build writes and reads.
const (
	versionV3      = 3
	tagQueries     = 1
	tagTenants     = 2
	sectionVersion = 1
)

// FileName is the snapshot's name inside a checkpoint directory. Writes go
// through a temp file and an atomic rename, so the name always refers to a
// complete snapshot.
const FileName = "checkpoint.ckpt"

// ErrNoSnapshot reports that a checkpoint directory holds no snapshot file.
var ErrNoSnapshot = errors.New("snapshot: no checkpoint found")

// VersionError reports a snapshot this build cannot read: a file version it
// does not know (Section empty), a section at a version it does not read
// (Supported 0 for an unknown tag, named "tag N"), or a version-3 Query
// registered with per-query compile options.
type VersionError struct {
	Got       uint64
	Supported uint64
	Section   string
	Query     string
}

func (e *VersionError) Error() string {
	switch {
	case e.Query != "":
		return fmt.Sprintf("snapshot: version 3 query %q has per-query compile options, which this build no longer reads", e.Query)
	case e.Section != "":
		return fmt.Sprintf("snapshot: section %s version %d not supported (this build reads version %d of it, 0 if none)", e.Section, e.Got, e.Supported)
	}
	return fmt.Sprintf("snapshot: format version %d not supported (this build reads versions %d and %d; older formats cannot be migrated)", e.Got, versionV3, e.Supported)
}

// CorruptError reports a snapshot file that failed structural validation:
// bad magic, truncation, CRC mismatch, or malformed payload fields.
type CorruptError struct {
	Reason string
	Err    error
}

func (e *CorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("snapshot: corrupt: %s: %v", e.Reason, e.Err)
	}
	return fmt.Sprintf("snapshot: corrupt: %s", e.Reason)
}

func (e *CorruptError) Unwrap() error { return e.Err }

func corrupt(reason string, err error) error { return &CorruptError{Reason: reason, Err: err} }

// Snapshot is one consistent cut of an engine.
type Snapshot struct {
	// TakenAt records the wall-clock capture time (informational).
	TakenAt time.Time
	// Offset is the stream position of the capture barrier: how many
	// journaled events the state reflects. Replay resumes here.
	Offset int64
	// Shards is the shard count of the capturing runtime (informational; a
	// snapshot restores onto any shard count).
	Shards int
	// Queries is the registry at the barrier, sorted by name.
	Queries []Query
	// Tenants is the tenant control-plane metadata at the barrier, sorted by
	// name: quotas plus the budget/throttle counters that must survive a
	// restart so a restored engine keeps enforcing mid-window budgets. The
	// per-query recent-alert rings are observability-only and not persisted.
	Tenants []Tenant
}

// Tenant is one tenant's quotas and accounting at the barrier.
type Tenant struct {
	Name string
	Quotas
	Account
}

// Quotas are a tenant's limits (zero = unlimited), field for field the
// root package's TenantQuotas, which converts to and from it.
type Quotas struct {
	MaxQueries    int64
	MaxStateBytes int64
	AlertBudget   int64
	AlertWindow   time.Duration
	IngestRate    int64
}

// Account is the part of a tenant's engine-side state a restart keeps: the
// alert-budget window on stream time (WinStart zero before one opens, and
// WinCount the alerts delivered in it) and the cumulative counters.
type Account struct {
	WinStart   time.Time
	WinCount   int64
	Delivered  int64 // alerts delivered (all windows)
	Suppressed int64 // alerts dropped over budget
	SrcEvents  int64 // events accepted from the tenant's sources
	Throttled  int64 // events dropped by the rate quota
}

// Query is one registered query's registry entry plus its captured state.
type Query struct {
	Name    string
	Src     string
	Paused  bool
	Managed bool
	Labels  map[string]string
	// States holds the query's encoded runtime state, one blob per shard
	// replica that held it, in shard order.
	States [][]byte
}

// Encode serialises the snapshot into the current file format.
func Encode(s *Snapshot) []byte {
	p := appendPrefix(nil, s)
	p = appendSection(p, tagQueries, appendQueries(nil, s.Queries))
	p = appendSection(p, tagTenants, appendTenants(nil, s.Tenants))

	out := make([]byte, 0, len(Magic)+2+len(p)+16)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.AppendUvarint(out, uint64(len(p)))
	out = append(out, p...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
	return out
}

// Decode parses and validates a snapshot file image of version 3 or 4.
//
//saql:codecpair-ignore version dispatcher, not a codec half: the framing is held by FuzzSnapshotDecode, the prefix, section frame and section bodies are paired individually
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(Magic)+2 {
		return nil, corrupt("file shorter than header", nil)
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, corrupt("bad magic", nil)
	}
	ver := binary.LittleEndian.Uint16(data[len(Magic):])
	if ver != Version && ver != versionV3 {
		return nil, &VersionError{Got: uint64(ver), Supported: Version}
	}
	rest := data[len(Magic)+2:]
	plen, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, corrupt("bad payload length", nil)
	}
	rest = rest[n:]
	// Check plen on its own first: a near-max varint would overflow plen+4.
	if plen > uint64(len(rest)) || uint64(len(rest)) < plen+4 {
		return nil, corrupt(fmt.Sprintf("truncated payload (%d bytes left, %d claimed)", len(rest), plen), nil)
	}
	payload := rest[:plen]
	wantCRC := binary.LittleEndian.Uint32(rest[plen:])
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, corrupt("payload CRC mismatch", nil)
	}
	if uint64(len(rest)) != plen+4 {
		return nil, corrupt("trailing bytes after CRC", nil)
	}

	read := readSections
	if ver == versionV3 {
		read = readV3
	}
	r := wire.NewReader(payload)
	s := readPrefix(r)
	if err := read(r, s); err != nil {
		return nil, err
	}
	switch {
	case r.Err() != nil:
		return nil, corrupt("malformed payload", r.Err())
	case r.Len() != 0:
		return nil, corrupt("trailing bytes in payload", nil)
	case s.Offset < 0:
		return nil, corrupt("negative stream offset", nil)
	}
	return s, nil
}

// readV3 is the one upgrade reader. After the prefix a version-3 payload
// holds the queries body, with four compile varints after each source, and
// the tenants body, unframed. Queries now compile under their engine's
// defaults, so a non-zero compile varint is a *VersionError naming the query.
//
//saql:codecpair-ignore version-3 upgrade reader with no encode half: no build writes version 3 any more; the bodies it reads are paired individually
func readV3(r *wire.Reader, s *Snapshot) (err error) {
	s.Queries, err = readQueries(r, true)
	s.Tenants = readTenants(r)
	return err
}

// readSections reads a version-4 payload's sections.
//
//saql:codecpair-ignore section dispatcher, not a codec half: the section frame and each section body are paired individually
func readSections(r *wire.Reader, s *Snapshot) error {
	seen := map[uint64]bool{}
	for r.Len() > 0 && r.Err() == nil {
		tag, ver, body := readSection(r)
		name := map[uint64]string{tagQueries: "queries", tagTenants: "tenants"}[tag]
		switch {
		case r.Err() != nil:
			return nil // Decode reports the malformed payload
		case name == "":
			return &VersionError{Got: ver, Section: fmt.Sprintf("tag %d", tag)}
		case ver != sectionVersion:
			return &VersionError{Got: ver, Supported: sectionVersion, Section: name}
		case seen[tag]:
			return corrupt("duplicate section "+name, nil)
		}
		seen[tag] = true
		br := wire.NewReader(body)
		var err error
		if tag == tagQueries {
			s.Queries, err = readQueries(br, false)
		} else {
			s.Tenants = readTenants(br)
		}
		switch {
		case err != nil:
			return err
		case br.Err() != nil:
			return corrupt("malformed section "+name, br.Err())
		case br.Len() != 0:
			return corrupt("trailing bytes in section "+name, nil)
		}
	}
	return nil
}

// appendPrefix writes the payload's fixed prefix; a zero TakenAt is 0, not
// the zero time's huge negative UnixNano.
func appendPrefix(p []byte, s *Snapshot) []byte {
	var takenNS int64
	if !s.TakenAt.IsZero() {
		takenNS = s.TakenAt.UnixNano()
	}
	p = wire.AppendVarint(p, takenNS)
	p = wire.AppendVarint(p, s.Offset)
	return wire.AppendVarint(p, int64(s.Shards))
}

func readPrefix(r *wire.Reader) *Snapshot {
	s := &Snapshot{}
	if takenNS := r.Varint(); takenNS != 0 {
		s.TakenAt = time.Unix(0, takenNS)
	}
	s.Offset = r.Varint()
	s.Shards = int(r.Varint())
	return s
}

func appendSection(p []byte, tag uint64, body []byte) []byte {
	p = wire.AppendUvarint(p, tag)
	p = wire.AppendUvarint(p, sectionVersion)
	return wire.AppendBytes(p, body)
}

func readSection(r *wire.Reader) (tag, ver uint64, body []byte) {
	return r.Uvarint(), r.Uvarint(), r.Bytes()
}

func appendQueries(p []byte, qs []Query) []byte {
	p = wire.AppendUvarint(p, uint64(len(qs)))
	for _, q := range qs {
		p = wire.AppendString(p, q.Name)
		p = wire.AppendString(p, q.Src)
		p = wire.AppendBool(p, q.Paused)
		p = wire.AppendBool(p, q.Managed)
		p = wire.AppendUvarint(p, uint64(len(q.Labels)))
		for _, k := range slices.Sorted(maps.Keys(q.Labels)) {
			p = wire.AppendString(p, k)
			p = wire.AppendString(p, q.Labels[k])
		}
		p = wire.AppendUvarint(p, uint64(len(q.States)))
		for _, blob := range q.States {
			p = wire.AppendBytes(p, blob)
		}
	}
	return p
}

// readQueries reads a queries body; v3 also consumes each entry's compile
// varints.
func readQueries(r *wire.Reader, v3 bool) ([]Query, error) {
	var qs []Query
	n := r.Count(6)
	for i := 0; i < n && r.Err() == nil; i++ {
		q := Query{Name: r.String(), Src: r.String()}
		if v3 && v3CompileSet(r) {
			return nil, &VersionError{Got: versionV3, Supported: Version, Query: q.Name}
		}
		q.Paused = r.Bool()
		q.Managed = r.Bool()
		nLabels := r.Count(2)
		if nLabels > 0 {
			q.Labels = make(map[string]string, nLabels)
		}
		for j := 0; j < nLabels && r.Err() == nil; j++ {
			k := r.String()
			q.Labels[k] = r.String()
		}
		nStates := r.Count(1)
		for j := 0; j < nStates && r.Err() == nil; j++ {
			q.States = append(q.States, append([]byte(nil), r.Bytes()...))
		}
		qs = append(qs, q)
	}
	return qs, nil
}

// v3CompileSet consumes a version-3 entry's four compile varints and reports
// whether any is set. No section holds them, so no encoder writes them.
func v3CompileSet(r *wire.Reader) bool {
	return r.Varint()|r.Varint()|r.Varint()|r.Varint() != 0
}

func appendTenants(p []byte, ts []Tenant) []byte {
	p = wire.AppendUvarint(p, uint64(len(ts)))
	for _, t := range ts {
		p = wire.AppendString(p, t.Name)
		p = wire.AppendVarint(p, t.MaxQueries)
		p = wire.AppendVarint(p, t.MaxStateBytes)
		p = wire.AppendVarint(p, t.AlertBudget)
		p = wire.AppendVarint(p, int64(t.AlertWindow))
		p = wire.AppendVarint(p, t.IngestRate)
		// A zero WinStart (no window opened yet) is encoded as 0, not the
		// zero time's huge negative UnixNano.
		var winNS int64
		if !t.WinStart.IsZero() {
			winNS = t.WinStart.UnixNano()
		}
		p = wire.AppendVarint(p, winNS)
		p = wire.AppendVarint(p, t.WinCount)
		p = wire.AppendVarint(p, t.Delivered)
		p = wire.AppendVarint(p, t.Suppressed)
		p = wire.AppendVarint(p, t.SrcEvents)
		p = wire.AppendVarint(p, t.Throttled)
	}
	return p
}

func readTenants(r *wire.Reader) []Tenant {
	var ts []Tenant
	n := r.Count(12)
	for i := 0; i < n && r.Err() == nil; i++ {
		var t Tenant
		t.Name = r.String()
		t.MaxQueries = r.Varint()
		t.MaxStateBytes = r.Varint()
		t.AlertBudget = r.Varint()
		t.AlertWindow = time.Duration(r.Varint())
		t.IngestRate = r.Varint()
		if winNS := r.Varint(); winNS != 0 {
			t.WinStart = time.Unix(0, winNS)
		}
		t.WinCount = r.Varint()
		t.Delivered = r.Varint()
		t.Suppressed = r.Varint()
		t.SrcEvents = r.Varint()
		t.Throttled = r.Varint()
		ts = append(ts, t)
	}
	return ts
}

// Path returns the snapshot file path inside a checkpoint directory.
func Path(dir string) string { return filepath.Join(dir, FileName) }

// Write encodes s and atomically installs it as dir's snapshot, creating
// dir if needed. The data is fsynced before the rename and the directory
// fsynced after it, so the previous snapshot is replaced only once the new
// one is durable — a process kill or power loss mid-write never loses the
// old checkpoint.
func Write(dir string, s *Snapshot) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	path := Path(dir)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	if _, err := f.Write(Encode(s)); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("snapshot: %w", err)
	}
	// Sync the directory so the rename itself is durable; best-effort on
	// filesystems that reject directory fsync.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return path, nil
}

// Read loads and validates dir's snapshot. A missing file reports
// ErrNoSnapshot (callers distinguish "fresh directory" from corruption).
func Read(dir string) (*Snapshot, error) {
	data, err := os.ReadFile(Path(dir))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w in %s", ErrNoSnapshot, dir)
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return Decode(data)
}
