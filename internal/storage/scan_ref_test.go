package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"saql/internal/event"
	"saql/internal/wire"
)

// The journal's record codec and segment loops as they stood before the
// single walker, kept verbatim (names, and file access lifted to the caller,
// aside) as the oracles for the differential tests: every record a loop
// steps over is fully wire-decoded, skipped or not, and each encode builds
// its record in fresh buffers.

// refEncodeEvent produces one store record: uvarint payloadLen | payload |
// crc32(payload), with the payload encoded by the shared wire codec.
func refEncodeEvent(ev *event.Event) []byte {
	payload := wire.AppendEvent(make([]byte, 0, 128), ev)
	rec := binary.AppendUvarint(nil, uint64(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	return rec
}

// refDecodeEvent decodes one store record from the front of data, returning
// the event and the record's total length. Truncated records and CRC
// mismatches are rejected before any payload field is interpreted.
func refDecodeEvent(data []byte) (*event.Event, int, error) {
	plen, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, 0, fmt.Errorf("bad record length")
	}
	if plen > uint64(len(data)) {
		return nil, 0, fmt.Errorf("truncated record (%d < %d)", len(data), plen)
	}
	total := n + int(plen) + 4
	if len(data) < total {
		return nil, 0, fmt.Errorf("truncated record (%d < %d)", len(data), total)
	}
	payload := data[n : n+int(plen)]
	wantCRC := binary.LittleEndian.Uint32(data[n+int(plen):])
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, 0, fmt.Errorf("crc mismatch")
	}
	r := wire.NewReader(payload)
	ev := r.ReadEvent()
	if r.Err() != nil {
		return nil, 0, r.Err()
	}
	if r.Len() != 0 {
		return nil, 0, fmt.Errorf("trailing garbage in record payload")
	}
	return ev, total, nil
}

// refScanSegment yields the segment's events past the first skip records,
// reporting how many records the segment holds in total.
func refScanSegment(seg string, data []byte, sel Selection, hosts map[string]bool, skip int64, yield func(*event.Event) error) (int64, error) {
	off := 0
	var count int64
	for off < len(data) {
		ev, n, err := refDecodeEvent(data[off:])
		if err != nil {
			return count, fmt.Errorf("storage: segment %s offset %d: %w", seg, off, err)
		}
		off += n
		count++
		if count <= skip {
			continue
		}
		if sel.matches(ev, hosts) {
			if err := yield(ev); err != nil {
				return count, err
			}
		}
	}
	return count, nil
}

// refRepairOffset is Repair's loop: the byte offset a torn final segment is
// truncated to, len(data) when every record decodes.
func refRepairOffset(data []byte) int {
	off := 0
	for off < len(data) {
		_, n, err := refDecodeEvent(data[off:])
		if err != nil {
			return off
		}
		off += n
	}
	return off
}
