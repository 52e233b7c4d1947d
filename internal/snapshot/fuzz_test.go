package snapshot

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"testing"
	"time"
)

// FuzzSnapshotDecode asserts the snapshot decoder contract under arbitrary
// input: no panics, no unbounded allocation, and every accepted input —
// version 3 or 4 — re-encodes as version 4 losslessly: decode∘encode∘decode
// gives a snapshot equal to the first decode in every field, and encoding
// that again gives the same bytes. `go test` runs the seed corpus on every
// CI run; `go test -fuzz=FuzzSnapshotDecode` explores further.
func FuzzSnapshotDecode(f *testing.F) {
	// Seeds: the two version-3 golden checkpoints, real version-4 snapshots
	// (empty, registry-only, state- and tenant-carrying), the header alone,
	// and assorted near-misses.
	for _, golden := range []string{"../../testdata/midwindow-v3.ckpt", "../../testdata/partials-v3.ckpt"} {
		data, err := os.ReadFile(golden)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	rich := &Snapshot{
		TakenAt: time.Unix(0, 1582794000123456789),
		Offset:  12345,
		Shards:  8,
		Queries: []Query{{
			Name:    "exfil",
			Src:     "proc p write ip i as e\nalert e.amount > 10\nreturn p",
			Paused:  true,
			Managed: true,
			Labels:  map[string]string{"team": "secops", "sev": "high"},
			States:  [][]byte{{1, 0, 0, 0, 0, 0, 0, 0, 0, 0}, {1, 1, 2, 3}},
		}},
		Tenants: []Tenant{{
			Name:    "acme",
			Quotas:  Quotas{MaxQueries: 4, AlertBudget: 10, AlertWindow: time.Minute},
			Account: Account{WinStart: time.Unix(0, 1582794000000000000), WinCount: 3},
		}},
	}
	f.Add(Encode(&Snapshot{}))
	f.Add(Encode(rich))
	f.Add(encodeV3(rich, nil))
	f.Add([]byte(Magic))
	f.Add([]byte(Magic + "\x04\x00"))
	f.Add([]byte(Magic + "\x01\x00\x00\x00\x00\x00\x00"))
	// A payload-length varint near 2^64: plen+4 must not overflow the
	// truncation check into a panicking slice expression.
	f.Add([]byte(Magic + "\x04\x00\xfc\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add([]byte("not a snapshot at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			if s != nil {
				t.Fatal("Decode returned both a snapshot and an error")
			}
			return
		}
		// Accepted input: it re-encodes as the current version and survives
		// the round trip field for field.
		image := Encode(s)
		if v := binary.LittleEndian.Uint16(image[len(Magic):]); v != Version {
			t.Fatalf("re-encoded as version %d, want %d", v, Version)
		}
		again, err := Decode(image)
		if err != nil {
			t.Fatalf("re-decode of accepted snapshot failed: %v", err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("round trip drifted:\n  first:  %+v\n  second: %+v", s, again)
		}
		if !bytes.Equal(Encode(again), image) {
			t.Fatal("re-encoding the round-tripped snapshot changed its bytes")
		}
	})
}
