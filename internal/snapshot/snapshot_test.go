package snapshot

// Unit and property tests for the snapshot container: arbitrary snapshots
// round-trip encode→decode deep-equal (and version-3 images decode to the
// same snapshot), every truncation and every CRC flip is rejected with a
// typed error, unsupported versions fail typed in both directions (older
// and newer), and each section rule fails with its own typed error.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"saql/internal/wire"
)

func randomSnapshot(rng *rand.Rand) *Snapshot {
	s := &Snapshot{
		Offset: rng.Int63(),
		Shards: rng.Intn(64),
	}
	if rng.Intn(4) != 0 {
		s.TakenAt = time.Unix(0, rng.Int63n(1<<62)+1)
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		q := Query{
			Name:    randStr(rng),
			Src:     randStr(rng),
			Paused:  rng.Intn(2) == 0,
			Managed: rng.Intn(2) == 0,
		}
		for j, m := 0, rng.Intn(3); j < m; j++ {
			if q.Labels == nil {
				q.Labels = map[string]string{}
			}
			q.Labels[randStr(rng)] = randStr(rng)
		}
		for j, m := 0, rng.Intn(3); j < m; j++ {
			blob := make([]byte, rng.Intn(64))
			rng.Read(blob)
			q.States = append(q.States, blob)
		}
		s.Queries = append(s.Queries, q)
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		t := Tenant{
			Name: randStr(rng),
			Quotas: Quotas{
				MaxQueries:    rng.Int63n(100),
				MaxStateBytes: rng.Int63(),
				AlertBudget:   rng.Int63n(1000),
				AlertWindow:   time.Duration(rng.Int63()),
				IngestRate:    rng.Int63n(1 << 20),
			},
			Account: Account{
				WinCount:   rng.Int63n(1000),
				Delivered:  rng.Int63(),
				Suppressed: rng.Int63(),
				SrcEvents:  rng.Int63(),
				Throttled:  rng.Int63(),
			},
		}
		if rng.Intn(2) == 0 {
			t.WinStart = time.Unix(0, rng.Int63n(1<<62)+1)
		}
		s.Tenants = append(s.Tenants, t)
	}
	return s
}

func randStr(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(16))
	rng.Read(b)
	return string(b)
}

// frame wraps a payload in the file header and CRC under version ver.
func frame(ver uint16, p []byte) []byte {
	out := append([]byte(Magic), 0, 0)
	binary.LittleEndian.PutUint16(out[len(Magic):], ver)
	out = binary.AppendUvarint(out, uint64(len(p)))
	out = append(out, p...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
}

// encodeV3 writes s in the version-3 layout, which this build reads but no
// longer writes: the prefix, the queries body with four compile varints
// after each source (compile[name], zeros when absent), then the tenants
// body, unframed.
func encodeV3(s *Snapshot, compile map[string][4]int64) []byte {
	p := wire.AppendVarint(nil, s.TakenAt.UnixNano())
	p = wire.AppendVarint(p, s.Offset)
	p = wire.AppendVarint(p, int64(s.Shards))
	p = wire.AppendUvarint(p, uint64(len(s.Queries)))
	for _, q := range s.Queries {
		p = wire.AppendString(p, q.Name)
		p = wire.AppendString(p, q.Src)
		for _, v := range compile[q.Name] {
			p = wire.AppendVarint(p, v)
		}
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
	return frame(versionV3, appendTenants(p, s.Tenants))
}

// rawSection frames body under any tag and section version.
func rawSection(p []byte, tag, ver uint64, body []byte) []byte {
	p = wire.AppendUvarint(p, tag)
	p = wire.AppendUvarint(p, ver)
	return wire.AppendBytes(p, body)
}

func TestSnapshotRoundTripProperty(t *testing.T) {
	// A nil and an empty blob both decode as nil.
	norm := func(s *Snapshot) {
		for i := range s.Queries {
			for j, blob := range s.Queries[i].States {
				if len(blob) == 0 {
					s.Queries[i].States[j] = nil
				}
			}
		}
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSnapshot(rng)
		norm(s)
		for _, image := range []struct {
			name string
			data []byte
		}{{"v4", Encode(s)}, {"v3", encodeV3(s, nil)}} {
			got, err := Decode(image.data)
			if err != nil {
				t.Logf("seed %d: %s decode failed: %v", seed, image.name, err)
				return false
			}
			if !got.TakenAt.Equal(s.TakenAt) && !(image.name == "v3" && s.TakenAt.IsZero()) {
				t.Logf("seed %d: %s TakenAt drifted", seed, image.name)
				return false
			}
			want := *s
			want.TakenAt, got.TakenAt = time.Time{}, time.Time{}
			if !reflect.DeepEqual(&want, got) {
				t.Logf("seed %d: %s round trip drifted:\n  in:  %+v\n  out: %+v", seed, image.name, &want, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// A zero TakenAt is written as 0 and decodes as the zero time.
	got, err := Decode(Encode(&Snapshot{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &Snapshot{}) {
		t.Errorf("empty snapshot decoded as %+v", got)
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := Encode(randomSnapshot(rng))
	// Every truncation fails with a typed error, never a panic or a
	// silently partial snapshot.
	for cut := 0; cut < len(data); cut++ {
		s, err := Decode(data[:cut])
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded: %+v", cut, len(data), s)
		}
		var verr *VersionError
		var cerr *CorruptError
		if !errors.As(err, &cerr) && !errors.As(err, &verr) {
			t.Fatalf("truncation to %d: untyped error %v", cut, err)
		}
	}
	// Every single-bit flip past the header fails (header flips may also
	// surface as version errors; payload flips must trip the CRC).
	for i := 0; i < 400; i++ {
		flipped := append([]byte(nil), data...)
		flipped[rng.Intn(len(flipped))] ^= 1 << uint(rng.Intn(8))
		if s, err := Decode(flipped); err == nil {
			// The flip may hit a labels/source byte... but then the CRC
			// catches it. A clean decode means the flip landed nowhere —
			// impossible for a bit flip.
			t.Fatalf("bit-flipped snapshot decoded: %+v", s)
		}
	}
}

func TestSnapshotVersionBothDirections(t *testing.T) {
	s := randomSnapshot(rand.New(rand.NewSource(5)))
	for _, tc := range []struct {
		ver   uint16
		image []byte
		opens bool
	}{
		{ver: 0},
		{ver: 1},
		{ver: 2},
		{ver: 3, image: encodeV3(s, nil), opens: true},
		{ver: 4, image: Encode(s), opens: true},
		{ver: 5},
		{ver: 0xFFFF},
	} {
		image := tc.image
		if image == nil {
			image = frame(tc.ver, appendPrefix(nil, s))
		}
		if got := binary.LittleEndian.Uint16(image[len(Magic):]); got != tc.ver {
			t.Fatalf("version %d: image carries version %d", tc.ver, got)
		}
		_, err := Decode(image)
		if tc.opens {
			if err != nil {
				t.Errorf("version %d: %v, want it to open", tc.ver, err)
			}
			continue
		}
		var verr *VersionError
		if !errors.As(err, &verr) {
			t.Fatalf("version %d: err = %v, want *VersionError", tc.ver, err)
		}
		if verr.Got != uint64(tc.ver) || verr.Supported != Version || verr.Section != "" {
			t.Errorf("version %d: error carries got=%d supported=%d section=%q", tc.ver, verr.Got, verr.Supported, verr.Section)
		}
	}
}

// TestSnapshotSectionRules covers the section reader's rules, each with its
// typed error: a tag this build does not know, a known tag at a section
// version it does not read, a duplicated section, an absent section (empty,
// not an error), trailing bytes inside a section body, and a version-3
// entry holding per-query compile options.
func TestSnapshotSectionRules(t *testing.T) {
	s := &Snapshot{
		TakenAt: time.Unix(0, 1582794000123456789),
		Offset:  42,
		Shards:  4,
		Queries: []Query{{Name: "exfil", Src: "proc p write ip i as e return p", States: [][]byte{{1, 2, 3}}}},
		Tenants: []Tenant{{Name: "acme", Quotas: Quotas{MaxQueries: 3}}},
	}
	prefix := appendPrefix(nil, s)
	queries := appendQueries(nil, s.Queries)
	tenants := appendTenants(nil, s.Tenants)
	v4 := func(sections ...[]byte) []byte {
		p := append([]byte(nil), prefix...)
		for _, sec := range sections {
			p = append(p, sec...)
		}
		return frame(Version, p)
	}
	sec := func(tag, ver uint64, body []byte) []byte { return rawSection(nil, tag, ver, body) }

	for _, tc := range []struct {
		name  string
		image []byte
		check func(t *testing.T, got *Snapshot, err error)
	}{
		{"unknown-tag", v4(sec(tagQueries, 1, queries), sec(9, 1, nil)), func(t *testing.T, _ *Snapshot, err error) {
			var verr *VersionError
			if !errors.As(err, &verr) || verr.Section != "tag 9" || verr.Supported != 0 {
				t.Errorf("err = %v, want *VersionError naming section tag 9", err)
			}
		}},
		{"known-tag-newer-version", v4(sec(tagQueries, 1, queries), sec(tagTenants, 2, tenants)), func(t *testing.T, _ *Snapshot, err error) {
			var verr *VersionError
			if !errors.As(err, &verr) || verr.Section != "tenants" || verr.Got != 2 || verr.Supported != sectionVersion {
				t.Errorf("err = %v, want *VersionError naming section tenants at version 2", err)
			}
		}},
		{"duplicate-section", v4(sec(tagQueries, 1, queries), sec(tagTenants, 1, tenants), sec(tagQueries, 1, queries)), func(t *testing.T, _ *Snapshot, err error) {
			var cerr *CorruptError
			if !errors.As(err, &cerr) {
				t.Errorf("err = %v, want *CorruptError", err)
			}
		}},
		{"absent-section", v4(sec(tagTenants, 1, tenants)), func(t *testing.T, got *Snapshot, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if got.Queries != nil || !reflect.DeepEqual(got.Tenants, s.Tenants) || got.Offset != s.Offset {
				t.Errorf("decoded %+v, want no queries and the tenants", got)
			}
		}},
		{"no-sections", v4(), func(t *testing.T, got *Snapshot, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if got.Queries != nil || got.Tenants != nil || got.Shards != s.Shards {
				t.Errorf("decoded %+v, want the prefix alone", got)
			}
		}},
		{"trailing-bytes-in-body", v4(sec(tagQueries, 1, append(append([]byte(nil), queries...), 0)), sec(tagTenants, 1, tenants)), func(t *testing.T, _ *Snapshot, err error) {
			var cerr *CorruptError
			if !errors.As(err, &cerr) {
				t.Errorf("err = %v, want *CorruptError", err)
			}
		}},
		{"v3-compile-options", encodeV3(s, map[string][4]int64{"exfil": {0, 0, 99, 0}}), func(t *testing.T, _ *Snapshot, err error) {
			var verr *VersionError
			if !errors.As(err, &verr) || verr.Query != "exfil" {
				t.Errorf("err = %v, want *VersionError naming query exfil", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Decode(tc.image)
			if err != nil && got != nil {
				t.Fatal("Decode returned both a snapshot and an error")
			}
			tc.check(t, got, err)
		})
	}
}

func TestSnapshotWriteAtomicity(t *testing.T) {
	dir := t.TempDir()
	first := &Snapshot{Offset: 1}
	if _, err := Write(dir, first); err != nil {
		t.Fatal(err)
	}
	second := &Snapshot{Offset: 2}
	path, err := Write(dir, second)
	if err != nil {
		t.Fatal(err)
	}
	if path != Path(dir) {
		t.Errorf("path = %q, want %q", path, Path(dir))
	}
	got, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Offset != 2 {
		t.Errorf("offset = %d, want 2 (latest write wins)", got.Offset)
	}
	// No temp file left behind.
	if _, err := os.Stat(filepath.Join(dir, FileName+".tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp file left behind: %v", err)
	}
	// Missing directory reads as ErrNoSnapshot.
	if _, err := Read(filepath.Join(dir, "nope")); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("missing dir: err = %v, want ErrNoSnapshot", err)
	}
}
