// Package storage implements the event store behind the stream replayer and
// the engine's write-ahead journal. The paper stores collected monitoring
// data in databases so attack traces can be replayed on demand; this package
// provides the equivalent embedded store: append-only segment files of
// framed records, with a per-segment sidecar index (record count, time range,
// hosts) written when a segment is sealed, so offset seeks and range scans
// touch only relevant segments.
//
// A record is uvarint len | payload | crc32(payload), the payload being one
// event in the shared wire encoding. Appends frame records into buffers the
// Store owns, so steady-state journaling allocates nothing. Every read goes
// through one walker (walk): it steps a segment record by record, checks
// the length and CRC of every record it steps over, and decodes the payload
// only of records it yields — seeking to an offset inside a segment costs a
// CRC per skipped record, not a decode. A record that fails its length or
// CRC check is what a torn write leaves: at the end of the final, unsealed
// segment Tail trims it, and then seals the segment; anywhere else it is a
// *CorruptError. A record whose CRC holds but whose payload does not decode
// was never written by AppendAll: it is a *CorruptError when yielded and is
// never trimmed. A sidecar's record count is trusted for segments a read
// skips and verified for every segment it walks. The one other pass over a
// segment's frames is the repair's seal (sealRepaired), over bytes walk has
// just verified.
package storage

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"saql/internal/event"
	"saql/internal/wire"
)

const (
	segmentPrefix  = "events-"
	segmentSuffix  = ".seg"
	metaSuffix     = ".idx"
	defaultSegSize = 8 << 20 // rotate segments at 8 MiB
)

// CorruptError reports journal bytes no append could have left behind: a
// record failing its length or CRC check anywhere but the tail of the final
// unsealed segment, a CRC-valid record whose payload does not decode, or a
// segment whose record count disagrees with its sidecar index.
type CorruptError struct {
	// Segment is the segment file's name.
	Segment string
	// Offset is the byte offset of the faulty record in the segment, or -1
	// when the fault is the segment's record count.
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Offset < 0 {
		return fmt.Sprintf("storage: segment %s: %s", e.Segment, e.Reason)
	}
	return fmt.Sprintf("storage: segment %s offset %d: %s", e.Segment, e.Offset, e.Reason)
}

// segMeta is the sidecar index of a sealed segment.
type segMeta struct {
	MinTime int64           `json:"min_time"`
	MaxTime int64           `json:"max_time"`
	Count   int64           `json:"count"`
	Hosts   map[string]bool `json:"hosts"`
}

// Store is an append-only event store rooted at a directory. Appends and
// reads belong to one goroutine at a time (the engine serialises them behind
// its journal-order lock); Sync alone may run beside them.
type Store struct {
	dir        string
	maxSegSize int64

	// active is stored by the appending goroutine and loaded by Sync.
	active     atomic.Pointer[os.File]
	activeName string
	activeSize int64
	activeMeta segMeta
	nextSeg    int

	// Reused encode buffers: one event's wire payload, and the framed
	// records awaiting a single file write (at most a segment's worth).
	payload []byte
	batch   []byte

	// failed latches the store after a torn write that could not be rolled
	// back: appending past torn bytes would poison every later scan, so the
	// store refuses further appends instead.
	failed error

	// segReads and decoded count segment files read whole and record
	// payloads decoded: the tests' proof that a seek decodes only its tail.
	segReads, decoded int64
}

// Options configure a store.
type Options struct {
	// MaxSegmentSize rotates the active segment beyond this many bytes;
	// zero uses 8 MiB.
	MaxSegmentSize int64
}

// Open opens (creating if needed) a store in dir.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	s := &Store{dir: dir, maxSegSize: opts.MaxSegmentSize}
	if s.maxSegSize <= 0 {
		s.maxSegSize = defaultSegSize
	}
	segs, err := s.listSegments()
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		n, err := segNumber(last)
		if err != nil {
			return nil, err
		}
		s.nextSeg = n + 1
	} else {
		s.nextSeg = 1
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// Append
// ---------------------------------------------------------------------------

// AppendAll appends a batch of events with one file write per segment
// rather than per event: it sits on the engine's journaling hot path, where
// every submitter serialises behind the append, so records are framed into
// the store's batch buffer and flushed in bulk (and at rotation boundaries).
// The sidecar metadata for buffered events is folded in only after their
// bytes hit the file, so a failed write can never leave the index claiming
// records the segment does not hold.
func (s *Store) AppendAll(evs []*event.Event) error {
	if s.failed != nil {
		return s.failed
	}
	s.batch = s.batch[:0]
	staged := 0 // evs[staged:i+1] are framed in s.batch, metadata pending
	for i, ev := range evs {
		if s.active.Load() == nil {
			if err := s.openSegment(); err != nil {
				return err
			}
		}
		s.batch, s.payload = appendRecord(s.batch, s.payload, ev)
		if s.activeSize+int64(len(s.batch)) >= s.maxSegSize {
			if err := s.flush(evs[staged : i+1]); err != nil {
				return err
			}
			staged = i + 1
			if err := s.seal(); err != nil {
				return err
			}
		}
	}
	return s.flush(evs[staged:])
}

// flush writes the batch buffer, which holds exactly staged's records, and
// then folds staged into the sidecar metadata.
func (s *Store) flush(staged []*event.Event) error {
	if len(staged) == 0 {
		return nil
	}
	err := s.writeRecords(s.batch)
	s.batch = s.batch[:0]
	if err != nil {
		return err
	}
	for _, ev := range staged {
		s.activeMeta.fold(ev)
	}
	return nil
}

// appendRecord frames one store record onto dst: uvarint payloadLen |
// payload | crc32(payload), with the payload encoded by the shared wire
// codec into scratch (returned for reuse).
//
//saql:codecpair-ignore the decode half is walk's yield branch, whose name is no codec's; the round trip is held by TestAppendBytesMatchReference and FuzzSegmentWalk
func appendRecord(dst, scratch []byte, ev *event.Event) (rec, payload []byte) {
	payload = wire.AppendEvent(scratch[:0], ev)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return dst, payload
}

// writeRecords appends encoded record bytes to the active segment. A failed
// or short write is rolled back by truncating the file to its pre-write
// size, so torn bytes never sit in front of later records; if the rollback
// itself fails the store latches failed (scans stay valid, appends stop).
func (s *Store) writeRecords(buf []byte) error {
	f := s.active.Load()
	start := s.activeSize
	n, err := f.Write(buf)
	if err == nil && n == len(buf) {
		s.activeSize += int64(n)
		return nil
	}
	if err == nil {
		err = io.ErrShortWrite
	}
	if terr := f.Truncate(start); terr != nil {
		s.failed = fmt.Errorf("storage: segment %s poisoned: write: %v; rollback: %v", s.activeName, err, terr)
		return s.failed
	}
	return fmt.Errorf("storage: append: %w", err)
}

// fold records one durably written event in a segment's sidecar metadata.
func (m *segMeta) fold(ev *event.Event) {
	m.add(ev.Time.UnixNano())
	m.Hosts[ev.AgentID] = true
}

// add counts one record, at time ts, into the metadata and its time range.
func (m *segMeta) add(ts int64) {
	if m.Count == 0 || ts < m.MinTime {
		m.MinTime = ts
	}
	if m.Count == 0 || ts > m.MaxTime {
		m.MaxTime = ts
	}
	m.Count++
}

func (s *Store) openSegment() error {
	name := fmt.Sprintf("%s%06d%s", segmentPrefix, s.nextSeg, segmentSuffix)
	s.nextSeg++
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: open segment: %w", err)
	}
	s.active.Store(f)
	s.activeName = name
	s.activeSize = 0
	s.activeMeta = segMeta{Hosts: map[string]bool{}}
	return nil
}

// seal seals the active segment, if there is one; the next append opens a
// new segment.
func (s *Store) seal() error {
	f := s.active.Load()
	if f == nil {
		return nil
	}
	if err := sealSegment(f, s.metaPath(s.activeName), &s.activeMeta); err != nil {
		return err
	}
	s.active.Store(nil)
	s.activeName = ""
	return nil
}

// sealSegment fsyncs and closes a segment file and then writes its sidecar
// index to metaPath: a sidecar, however incomplete, implies its segment is
// durable.
func sealSegment(f *os.File, metaPath string, meta *segMeta) error {
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: close: %w", err)
	}
	raw, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("storage: meta: %w", err)
	}
	if err := os.WriteFile(metaPath, raw, 0o644); err != nil {
		return fmt.Errorf("storage: meta: %w", err)
	}
	return nil
}

// sealRepaired seals the final segment that a recovering Tail has verified
// and, if it was torn, trimmed; data is its bytes. No append reaches it
// again — Open numbers new segments past it, and Tail sealed this handle's
// own — so without a sidecar every later read would walk it whole and no
// selection could skip it by time. The metadata is read off each record's
// head (wire.EventHead) without decoding it; a record whose head does not
// read leaves the segment unsealed, and the read that yields the record
// reports it.
func (s *Store) sealRepaired(seg string, data []byte) error {
	meta := segMeta{Hosts: map[string]bool{}}
	for off := 0; off < len(data); {
		// walk has checked every frame of data.
		plen, k := binary.Uvarint(data[off:])
		ns, agent, ok := wire.EventHead(data[off+k : off+k+int(plen)])
		if !ok {
			return nil
		}
		off += k + int(plen) + 4
		meta.add(ns)
		if !meta.Hosts[string(agent)] {
			meta.Hosts[string(agent)] = true
		}
	}
	f, err := os.OpenFile(filepath.Join(s.dir, seg), os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("storage: repair: %w", err)
	}
	defer f.Close() // for a failed fsync: sealSegment closes it otherwise
	return sealSegment(f, s.metaPath(seg), &meta)
}

// Sync flushes the active segment's appended records to stable storage
// without sealing it, and is safe to call while another goroutine appends:
// it fsyncs whichever segment file is active when it is called. Records in
// earlier segments were fsynced when those were sealed, and a file a
// concurrent rotation closes under the fsync was synced by that rotation,
// so on return every record whose append had returned before the call is
// durable. The checkpoint path relies on exactly that, without holding the
// journal-order lock across the fsync.
func (s *Store) Sync() error {
	f := s.active.Load()
	if f == nil {
		return nil
	}
	if err := f.Sync(); err != nil && !errors.Is(err, os.ErrClosed) {
		return fmt.Errorf("storage: sync: %w", err)
	}
	return nil
}

// Close seals the active segment and closes the store.
func (s *Store) Close() error { return s.seal() }

// ---------------------------------------------------------------------------
// Segments on disk
// ---------------------------------------------------------------------------

func (s *Store) listSegments() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, segmentPrefix) && strings.HasSuffix(name, segmentSuffix) {
			segs = append(segs, name)
		}
	}
	sort.Strings(segs)
	return segs, nil
}

func segNumber(name string) (int, error) {
	num := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix)
	var n int
	if _, err := fmt.Sscanf(num, "%d", &n); err != nil {
		return 0, fmt.Errorf("storage: bad segment name %q", name)
	}
	return n, nil
}

func (s *Store) metaPath(seg string) string {
	return filepath.Join(s.dir, strings.TrimSuffix(seg, segmentSuffix)+metaSuffix)
}

// readMeta loads a segment's sidecar index. sealed reports that a sidecar
// file exists at all — the segment was fsynced and closed, so it is never
// eligible for repair; meta is nil when the file is missing or does not
// parse, and the segment's records are then counted by walking it.
func (s *Store) readMeta(seg string) (meta *segMeta, sealed bool) {
	data, err := os.ReadFile(s.metaPath(seg))
	if err != nil {
		return nil, !errors.Is(err, fs.ErrNotExist)
	}
	var m segMeta
	if err := json.Unmarshal(data, &m); err != nil || m.Count < 0 {
		return nil, true
	}
	return &m, true
}

// readSegment reads a segment file whole, in one read sized by its stat.
func (s *Store) readSegment(seg string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, seg))
	if err != nil {
		return nil, fmt.Errorf("storage: read %s: %w", seg, err)
	}
	s.segReads++
	return data, nil
}

// ---------------------------------------------------------------------------
// The walker
// ---------------------------------------------------------------------------

// walked is what one pass over a segment's bytes established.
type walked struct {
	n       int64 // records that passed their length and CRC checks
	tail    int   // byte offset of record number skip (end, when n <= skip)
	end     int   // byte offset just past the last such record
	decoded int64 // payloads handed to the wire decoder
	// latest is the latest event time among the first skip records, in unix
	// nanoseconds (when seen), read off their payloads without decoding
	// them (wire.EventHead).
	latest int64
	seen   bool
}

// walk is the journal's one reader. It steps data record by record,
// checking each record's length and CRC; the first skip records are only
// stepped over, and each later one is decoded and passed to yield. A nil
// yield decodes nothing: the walk then only counts, verifies and locates
// record number skip. It stops at the first record failing its frame checks
// (a *CorruptError at w.end — the only error of a walk that yields nothing,
// and the caller decides whether it is a repairable tail), the first payload
// that does not decode (a *CorruptError at that record, which w.n counts) or
// the first yield error, with w describing the records before it.
func walk(seg string, data []byte, skip int64, yield func(*event.Event) error) (w walked, err error) {
	for off := 0; off < len(data); {
		plen, k := binary.Uvarint(data[off:])
		// No event encodes to an empty payload, while a run of zero bytes —
		// what a crash can leave past the last completed write — would
		// otherwise frame as empty records with a valid CRC of 0.
		if k <= 0 || plen == 0 {
			return w, corruptAt(seg, off, "bad record length")
		}
		rest := len(data) - off - k
		if plen > uint64(rest) || rest-int(plen) < 4 {
			return w, corruptAt(seg, off, fmt.Sprintf("truncated record (%d bytes left, length prefix %d)", rest, plen))
		}
		payload := data[off+k : off+k+int(plen)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+k+int(plen):]) {
			return w, corruptAt(seg, off, "crc mismatch")
		}
		start := off
		off += k + int(plen) + 4
		w.n, w.end = w.n+1, off
		if w.n <= skip {
			w.tail = off
			if ns, _, ok := wire.EventHead(payload); ok && (!w.seen || ns > w.latest) {
				w.latest, w.seen = ns, true
			}
			continue
		}
		if yield == nil {
			continue
		}
		r := wire.NewReader(payload)
		ev := r.ReadEvent()
		w.decoded++
		if err := r.Err(); err != nil {
			return w, corruptAt(seg, start, err.Error())
		}
		if r.Len() != 0 {
			return w, corruptAt(seg, start, "trailing garbage in record payload")
		}
		if err := yield(ev); err != nil {
			return w, err
		}
	}
	return w, nil
}

func corruptAt(seg string, off int, reason string) error {
	return &CorruptError{Segment: seg, Offset: int64(off), Reason: reason}
}

// load reads a segment and walks it without decoding: how a segment with no
// usable sidecar is counted, and the one holding a tail's offset located.
// When the walk stops at a torn record and trim is set, the file is truncated
// to its last whole record and dropped reports the bytes removed; otherwise
// the tear is returned as the error it is.
func (s *Store) load(seg string, skip int64, trim bool) (data []byte, w walked, dropped int64, err error) {
	if data, err = s.readSegment(seg); err != nil {
		return nil, w, 0, err
	}
	if w, err = walk(seg, data, skip, nil); err == nil {
		return data, w, 0, nil
	}
	if !trim {
		return nil, w, 0, err
	}
	if err := os.Truncate(filepath.Join(s.dir, seg), int64(w.end)); err != nil {
		return nil, w, 0, fmt.Errorf("storage: repair: %w", err)
	}
	return data[:w.end], w, int64(len(data) - w.end), nil
}

// countMismatch is the error for a segment whose walk disagrees with its
// sidecar: every later offset would silently shift by the difference.
func countMismatch(seg string, meta *segMeta, w walked) error {
	return &CorruptError{Segment: seg, Offset: -1,
		Reason: fmt.Sprintf("sidecar index counts %d records, segment holds %d", meta.Count, w.n)}
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

// Selection filters a scan.
type Selection struct {
	// Hosts restricts to these agent ids; empty means all hosts.
	Hosts []string
	// From/To bound event time (inclusive from, exclusive to). Zero values
	// mean unbounded.
	From time.Time
	To   time.Time
}

func (sel *Selection) hostSet() map[string]bool {
	if len(sel.Hosts) == 0 {
		return nil
	}
	m := make(map[string]bool, len(sel.Hosts))
	for _, h := range sel.Hosts {
		m[h] = true
	}
	return m
}

func (sel *Selection) matches(ev *event.Event, hosts map[string]bool) bool {
	if hosts != nil && !hosts[ev.AgentID] {
		return false
	}
	if !sel.From.IsZero() && ev.Time.Before(sel.From) {
		return false
	}
	if !sel.To.IsZero() && !ev.Time.Before(sel.To) {
		return false
	}
	return true
}

// segmentOverlaps consults the sidecar index (if present) to skip segments
// entirely outside the selection.
func (sel *Selection) segmentOverlaps(meta *segMeta) bool {
	if meta == nil {
		return true
	}
	if !sel.From.IsZero() && meta.MaxTime < sel.From.UnixNano() {
		return false
	}
	if !sel.To.IsZero() && meta.MinTime >= sel.To.UnixNano() {
		return false
	}
	if len(sel.Hosts) > 0 {
		any := false
		for _, h := range sel.Hosts {
			if meta.Hosts[h] {
				any = true
				break
			}
		}
		if !any {
			return false
		}
	}
	return true
}

// Tail is the journal from a global record offset onward: located and
// counted, not yet decoded, with the stream watermark of what precedes it.
// Each decodes it.
type Tail struct {
	// Count is how many records the whole journal holds: the offset the
	// next append lands at.
	Count int64
	// Before is the stream watermark of the records before the offset: the
	// sidecar max_time of each sealed segment they fill, and the times of
	// those in a segment Tail walks.
	Before event.Watermark

	store *Store
	segs  []tailSeg // the segments holding records at or past the offset
}

type tailSeg struct {
	name string
	meta *segMeta // nil where Tail walked the segment: data is then set
	skip int64    // records of this segment that precede the offset
	// data holds a segment Tail walked — to count it, or to locate the
	// offset inside it — already verified and cut to start at the offset;
	// nil means Each reads the file.
	data []byte
}

// Tail is the recover-then-read entry to a journal that may have been left
// by a crash. It seals this handle's own active segment, trims a torn tail
// from the final unsealed segment (what an unsynced append leaves after a
// power loss; a frame failure in a sealed segment, whose records were
// fsynced at seal time, is a *CorruptError and is never trimmed) and then
// seals that segment (sealRepaired), counts the journal — from the sidecar
// of every sealed segment, by a decode-free walk of the others — and returns the part from the global record offset onward,
// still encoded. Record 0 is the first event ever appended, and offsets count
// every record in storage order. An offset past Count yields an empty tail;
// whether that is an error is the caller's call. Of the sealed segments Tail
// reads only the one holding the offset, once: the walk that locates the
// offset reads the times of the records before it, and Each decodes the
// rest from the bytes read.
func (s *Store) Tail(offset int64) (*Tail, error) { return s.tail(offset, true) }

// tail builds a Tail, repairing the final segment only when repair is set.
func (s *Store) tail(offset int64, repair bool) (*Tail, error) {
	// Seal the active segment so its data is visible to the read.
	if err := s.seal(); err != nil {
		return nil, err
	}
	names, err := s.listSegments()
	if err != nil {
		return nil, err
	}
	t := &Tail{store: s}
	for i, name := range names {
		seg := tailSeg{name: name, skip: max(offset-t.Count, 0)}
		var n int64
		var sealed bool
		switch seg.meta, sealed = s.readMeta(name); {
		case seg.meta != nil && t.Count+seg.meta.Count <= offset:
			if n = seg.meta.Count; n > 0 {
				t.Before.Through(time.Unix(0, seg.meta.MaxTime))
			}
		case seg.meta != nil && seg.skip == 0:
			n = seg.meta.Count
		default: // no usable sidecar, or the offset inside the segment
			final := repair && !sealed && i == len(names)-1
			data, w, _, err := s.load(name, seg.skip, final)
			if err != nil {
				return nil, err
			}
			if seg.meta != nil && w.n != seg.meta.Count {
				return nil, countMismatch(name, seg.meta, w)
			}
			if final {
				if err := s.sealRepaired(name, data); err != nil {
					return nil, err
				}
			}
			if w.seen {
				t.Before.Through(time.Unix(0, w.latest))
			}
			n = w.n
			seg.meta, seg.data, seg.skip = nil, data[w.tail:w.end], 0
		}
		t.Count += n
		if t.Count > offset {
			t.segs = append(t.segs, seg)
		}
	}
	return t, nil
}

// Each decodes the tail's events in storage order, invoking yield for each;
// a yield error aborts it. Every record of a segment it reads is CRC-checked
// whether or not it precedes the offset, and a sealed segment's record count
// is checked against its sidecar. Each consumes the tail: call it once.
func (t *Tail) Each(yield func(*event.Event) error) error {
	return t.each(Selection{}, yield)
}

func (t *Tail) each(sel Selection, yield func(*event.Event) error) error {
	s, segs := t.store, t.segs
	t.segs = nil
	hosts := sel.hostSet()
	filtered := func(ev *event.Event) error {
		if !sel.matches(ev, hosts) {
			return nil
		}
		return yield(ev)
	}
	for _, seg := range segs {
		if !sel.segmentOverlaps(seg.meta) {
			// The sidecar index proves no record matches the selection.
			continue
		}
		data := seg.data
		if seg.meta != nil {
			var err error
			if data, err = s.readSegment(seg.name); err != nil {
				return err
			}
		}
		w, err := walk(seg.name, data, seg.skip, filtered)
		s.decoded += w.decoded
		if err != nil {
			return err
		}
		if seg.meta != nil && w.n != seg.meta.Count {
			return countMismatch(seg.name, seg.meta, w)
		}
	}
	return nil
}

// ScanFrom reads stored events starting at the global record offset — the
// cursor coordinate the engine's checkpoints record (see Tail). Sealed
// segments whose sidecar index shows they end before the offset, or hold
// nothing sel matches, are skipped without being read; sel then filters the
// yielded tail. Unlike Tail it repairs nothing: a torn record is an error.
// A yield error aborts the scan.
func (s *Store) ScanFrom(offset int64, sel Selection, yield func(*event.Event) error) error {
	t, err := s.tail(offset, false)
	if err != nil {
		return err
	}
	return t.each(sel, yield)
}

// ReadAll collects all stored events matching sel, in storage order (which is
// append order; collection agents append in time order).
func (s *Store) ReadAll(sel Selection) ([]*event.Event, error) {
	var out []*event.Event
	err := s.ScanFrom(0, sel, func(ev *event.Event) error {
		out = append(out, ev)
		return nil
	})
	return out, err
}
