package codec

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"saql/internal/event"
)

// The byte scanner must be indistinguishable from the encoding/json decoder
// it replaced (ndjson_ref_test.go): same lines accepted, same lines refused,
// same event out. ndjsonEdgeLines is the table of inputs where a hand-written
// JSON reader most easily drifts from encoding/json; it seeds the fuzz target
// and is replayed by TestNDJSONRoundTrip / TestNDJSONMalformedLines.

const (
	edgeSubj = `"subject":{"exe":"a.exe","pid":7}`
	edgeObj  = `"object":{"type":"file","path":"/x"}`
	edgeRest = edgeSubj + `,"op":"read",` + edgeObj
	edgeTS   = `"ts":"2020-02-27T09:00:00Z"`
)

// edgeLine is one input with the verdict both decoders must reach.
type edgeLine struct {
	name string
	line string
	ok   bool
}

func ndjsonEdgeLines() []edgeLine {
	deep := func(n int) string {
		return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,` + edgeTS + `,` + edgeRest + `}`
	}
	lines := []edgeLine{
		// Strings: escapes, \u, surrogates, malformed UTF-8.
		{"escapes in exe and path", `{` + edgeTS + `,"subject":{"exe":"a\"b\\c\/d\b\f\n\r\t.exe","pid":1},"op":"write","object":{"type":"file","path":"C:\\db\\\u00e9\u4e16.dmp"}}`, true},
		{"surrogate pair", `{` + edgeTS + `,"subject":{"exe":"\ud83d\ude00.exe"},"op":"read","object":{"type":"file","path":"/\uD83D\uDE00"}}`, true},
		{"lone high surrogate", `{` + edgeTS + `,"subject":{"exe":"\ud83dx"},"op":"read",` + edgeObj + `}`, true},
		{"lone low surrogate", `{` + edgeTS + `,"subject":{"exe":"\ude00"},"op":"read",` + edgeObj + `}`, true},
		{"high surrogate then escaped backslash", `{` + edgeTS + `,"subject":{"exe":"\ud83d\\ude00"},"op":"read",` + edgeObj + `}`, true},
		{"two high surrogates", `{` + edgeTS + `,"subject":{"exe":"\ud83d\ud83d\ude00"},"op":"read",` + edgeObj + `}`, true},
		{"escaped NUL", `{` + edgeTS + `,"subject":{"exe":"a\u0000b"},"op":"read",` + edgeObj + `}`, true},
		{"invalid UTF-8", "{" + edgeTS + `,"agent":"h` + "\xff\xfe" + `","subject":{"exe":"a` + "\xc3" + `"},"op":"read","object":{"type":"file","path":"/` + "\xed\xa0\x80" + `"}}`, true},
		{"valid multi-byte UTF-8", `{` + edgeTS + `,"agent":"hôte-世界","subject":{"exe":"é.exe"},"op":"read",` + edgeObj + `}`, true},
		{"escaped key", `{"t\u0073":"2020-02-27T09:00:00Z","\u0073ubject":{"ex\u0065":"a"},"op":"read",` + edgeObj + `}`, true},
		{"bad escape", `{` + edgeTS + `,"subject":{"exe":"a\x"},"op":"read",` + edgeObj + `}`, false},
		{"single-quote escape", `{` + edgeTS + `,"subject":{"exe":"a\'"},"op":"read",` + edgeObj + `}`, false},
		{"short \\u", `{` + edgeTS + `,"subject":{"exe":"a\u12"},"op":"read",` + edgeObj + `}`, false},
		{"non-hex \\u", `{` + edgeTS + `,"subject":{"exe":"a\u12g4"},"op":"read",` + edgeObj + `}`, false},
		{"raw control character", "{" + edgeTS + `,"subject":{"exe":"a` + "\x01" + `"},"op":"read",` + edgeObj + `}`, false},
		{"raw tab in string", "{" + edgeTS + `,"subject":{"exe":"a` + "\t" + `"},"op":"read",` + edgeObj + `}`, false},
		{"unterminated string", `{` + edgeTS + `,"subject":{"exe":"a`, false},
		{"bad escape in ignored value", `{"x":"\q",` + edgeTS + `,` + edgeRest + `}`, false},
		{"bad escape in ignored key", `{"x":{"\q":1},` + edgeTS + `,` + edgeRest + `}`, false},
		{"interned value over the length cap", `{` + edgeTS + `,"subject":{"exe":"` + strings.Repeat("x", internMaxLen+1) + `"},"op":"read",` + edgeObj + `}`, true},

		// Keys: case, folding, duplicates, merging, null.
		{"case-variant keys", `{"TS":"2020-02-27T09:00:00Z","Agent":"H","SUBJECT":{"EXE":"a","Pid":3},"Op":"read","oBJect":{"TYPE":"file","PATH":"/x"},"AMOUNT":2}`, true},
		{"long-s folds onto s", `{"tſ":"2020-02-27T09:00:00Z","ſubject":{"exe":"a","uſer":"u"},"op":"read","object":{"type":"ip","dſt_ip":"1.2.3.4","ſrc_port":9}}`, true},
		{"kelvin sign matches nothing", `{` + edgeTS + `,"subject":{"exe":"a"},"op":"read","object":{"type":"file","path":"/x"},"\u212a":1}`, true},
		{"duplicate keys: last wins", `{"ts":1,"ts":"2020-02-27T09:00:00Z","agent":"a","agent":"b","op":"x","op":"read",` + edgeSubj + `,` + edgeObj + `,"amount":1,"amount":2}`, true},
		{"exact and folded duplicate", `{"Agent":"A","agent":"b","AGENT":"C",` + edgeTS + `,` + edgeRest + `}`, true},
		{"bad ts then good ts", `{"ts":"nope","ts":{"a":[1]},"ts":true,"ts":5,` + edgeRest + `}`, true},
		{"good ts then bad ts", `{"ts":5,"ts":"nope",` + edgeRest + `}`, false},
		{"good ts then null ts", `{"ts":5,"ts":null,` + edgeRest + `}`, false},
		{"repeated subject merges", `{` + edgeTS + `,"subject":{"exe":"a","pid":1},"subject":{"pid":2,"user":"u"},"op":"read",` + edgeObj + `}`, true},
		{"repeated object merges", `{` + edgeTS + `,` + edgeSubj + `,"op":"read","object":{"path":"/x"},"object":{"type":"file"}}`, true},
		{"null subject clears it", `{` + edgeTS + `,"subject":{"exe":"a"},"subject":null,"op":"read",` + edgeObj + `}`, false},
		{"null then subject", `{` + edgeTS + `,"subject":{"exe":"a","user":"u"},"subject":null,"subject":{"exe":"b"},"op":"read",` + edgeObj + `}`, true},
		{"null object clears it", `{` + edgeTS + `,` + edgeSubj + `,"op":"read",` + edgeObj + `,"object":null}`, false},
		{"null scalars are untouched", `{` + edgeTS + `,"agent":"h","agent":null,"host":null,"subject":{"exe":"a","exe":null,"pid":4,"pid":null,"user":null},"op":"read","op":null,"object":{"type":"file","type":null,"path":"/x","path":null},"amount":3,"amount":null}`, true},
		{"empty subject object", `{` + edgeTS + `,"subject":{},"op":"read",` + edgeObj + `}`, false},
		{"host alias", `{` + edgeTS + `,"host":"h1",` + edgeRest + `}`, true},
		{"agent beats host", `{` + edgeTS + `,"host":"h1","agent":"a1",` + edgeRest + `}`, true},
		{"empty agent falls to host", `{` + edgeTS + `,"agent":"","host":"h1",` + edgeRest + `}`, true},
		{"subject carries object-only fields", `{` + edgeTS + `,"subject":{"exe":"a","type":"file","path":"/p","dst_ip":"1.1.1.1","proto":"udp"},"op":"read",` + edgeObj + `}`, true},
		{"empty key", `{"":1,` + edgeTS + `,` + edgeRest + `}`, true},

		// Wrong JSON types.
		{"number for string", `{` + edgeTS + `,"agent":5,` + edgeRest + `}`, false},
		{"string for pid", `{` + edgeTS + `,"subject":{"exe":"a","pid":"7"},"op":"read",` + edgeObj + `}`, false},
		{"bool for amount", `{` + edgeTS + `,` + edgeRest + `,"amount":true}`, false},
		{"string for amount", `{` + edgeTS + `,` + edgeRest + `,"amount":"1"}`, false},
		{"array for subject", `{` + edgeTS + `,"subject":[1],"op":"read",` + edgeObj + `}`, false},
		{"string for object", `{` + edgeTS + `,` + edgeSubj + `,"op":"read","object":"file"}`, false},
		{"object for exe", `{` + edgeTS + `,"subject":{"exe":{}},"op":"read",` + edgeObj + `}`, false},
		{"number for ignored subject field", `{` + edgeTS + `,"subject":{"exe":"a","path":5},"op":"read",` + edgeObj + `}`, false},
		{"wrong type then right type", `{` + edgeTS + `,"agent":5,"agent":"h",` + edgeRest + `}`, false},

		// Integers.
		{"pid 1.0", `{` + edgeTS + `,"subject":{"exe":"a","pid":1.0},"op":"read",` + edgeObj + `}`, false},
		{"pid 1e2", `{` + edgeTS + `,"subject":{"exe":"a","pid":1e2},"op":"read",` + edgeObj + `}`, false},
		{"pid 2147483647", `{` + edgeTS + `,"subject":{"exe":"a","pid":2147483647},"op":"read",` + edgeObj + `}`, true},
		{"pid 2147483648", `{` + edgeTS + `,"subject":{"exe":"a","pid":2147483648},"op":"read",` + edgeObj + `}`, false},
		{"pid -2147483648", `{` + edgeTS + `,"subject":{"exe":"a","pid":-2147483648},"op":"read",` + edgeObj + `}`, true},
		{"pid -2147483649", `{` + edgeTS + `,"subject":{"exe":"a","pid":-2147483649},"op":"read",` + edgeObj + `}`, false},
		{"pid of forty digits", `{` + edgeTS + `,"subject":{"exe":"a","pid":1234567890123456789012345678901234567890},"op":"read",` + edgeObj + `}`, false},
		{"pid -0", `{` + edgeTS + `,"subject":{"exe":"a","pid":-0},"op":"read",` + edgeObj + `}`, true},
		{"pid 01", `{` + edgeTS + `,"subject":{"exe":"a","pid":01},"op":"read",` + edgeObj + `}`, false},
		{"port out of int32", `{` + edgeTS + `,` + edgeSubj + `,"op":"connect","object":{"type":"ip","dst_ip":"1.2.3.4","dst_port":99999999999}}`, false},
		{"negative port", `{` + edgeTS + `,` + edgeSubj + `,"op":"connect","object":{"type":"ip","dst_ip":"1.2.3.4","dst_port":-1,"src_port":0}}`, true},

		// Numbers in general.
		{"amount forms", `{` + edgeTS + `,` + edgeRest + `,"amount":-1.5e+3}`, true},
		{"amount -0", `{` + edgeTS + `,` + edgeRest + `,"amount":-0}`, true},
		{"amount 1E-400 underflows", `{` + edgeTS + `,` + edgeRest + `,"amount":1E-400}`, true},
		{"amount 1e999 overflows", `{` + edgeTS + `,` + edgeRest + `,"amount":1e999}`, false},
		{"amount with leading plus", `{` + edgeTS + `,` + edgeRest + `,"amount":+1}`, false},
		{"amount 1.", `{` + edgeTS + `,` + edgeRest + `,"amount":1.}`, false},
		{"amount .5", `{` + edgeTS + `,` + edgeRest + `,"amount":.5}`, false},
		{"amount 1e", `{` + edgeTS + `,` + edgeRest + `,"amount":1e}`, false},
		{"amount -", `{` + edgeTS + `,` + edgeRest + `,"amount":-}`, false},
		{"amount 0x10", `{` + edgeTS + `,` + edgeRest + `,"amount":0x10}`, false},
		{"amount NaN", `{` + edgeTS + `,` + edgeRest + `,"amount":NaN}`, false},
		// An amount without an exponent is range-checked by its integer digits.
		{"amount of 308 nines", `{` + edgeTS + `,` + edgeRest + `,"amount":` + strings.Repeat("9", 308) + `.5}`, true},
		{"amount of -308 nines", `{` + edgeTS + `,` + edgeRest + `,"amount":-` + strings.Repeat("9", 308) + `}`, true},
		{"amount 10^308 in 309 digits", `{` + edgeTS + `,` + edgeRest + `,"amount":1` + strings.Repeat("0", 308) + `}`, true},
		{"amount of 309 nines", `{` + edgeTS + `,` + edgeRest + `,"amount":` + strings.Repeat("9", 309) + `}`, false},
		{"amount of 400 digits", `{` + edgeTS + `,` + edgeRest + `,"amount":1` + strings.Repeat("0", 399) + `}`, false},
		{"amount max float64", `{` + edgeTS + `,` + edgeRest + `,"amount":1.7976931348623157e308}`, true},
		{"amount 1.8e308", `{` + edgeTS + `,` + edgeRest + `,"amount":1.8e308}`, false},
		{"amount smallest subnormal", `{` + edgeTS + `,` + edgeRest + `,"amount":4.9e-324}`, true},
		{"amount -0.0e0", `{` + edgeTS + `,` + edgeRest + `,"amount":-0.0e0}`, true},
		{"ignored bad number", `{"x":[1,2,03],` + edgeTS + `,` + edgeRest + `}`, false},

		// Timestamps.
		{"ts number", `{"ts":1582794001.5,` + edgeRest + `}`, true},
		{"ts negative number", `{"ts":-1.25,` + edgeRest + `}`, true},
		{"ts exponent number", `{"ts":1.582794e9,` + edgeRest + `}`, true},
		{"ts true", `{"ts":true,` + edgeRest + `}`, false},
		{"ts null", `{"ts":null,` + edgeRest + `}`, false},
		{"ts object", `{"ts":{},` + edgeRest + `}`, false},
		{"ts missing", `{` + edgeRest + `}`, false},
		{"ts offset form", `{"ts":"2020-02-27T09:00:03+05:30",` + edgeRest + `}`, true},
		{"ts +00:00", `{"ts":"2020-02-27T09:00:03+00:00",` + edgeRest + `}`, true},
		{"ts 9-digit fraction", `{"ts":"2020-02-27T09:00:00.123456789Z",` + edgeRest + `}`, true},
		{"ts 12-digit fraction", `{"ts":"2020-02-27T09:00:00.123456789999Z",` + edgeRest + `}`, true},
		{"ts 1-digit fraction", `{"ts":"2020-02-27T09:00:00.5Z",` + edgeRest + `}`, true},
		{"ts comma fraction", `{"ts":"2020-02-27T09:00:00,5Z",` + edgeRest + `}`, true},
		{"ts bare dot", `{"ts":"2020-02-27T09:00:00.Z",` + edgeRest + `}`, false},
		{"ts lower-case t", `{"ts":"2020-02-27t09:00:00Z",` + edgeRest + `}`, false},
		{"ts lower-case z", `{"ts":"2020-02-27T09:00:00z",` + edgeRest + `}`, false},
		{"ts leap second", `{"ts":"2016-12-31T23:59:60Z",` + edgeRest + `}`, false},
		{"ts hour 24", `{"ts":"2020-02-27T24:00:00Z",` + edgeRest + `}`, false},
		{"ts one-digit hour", `{"ts":"2020-02-27T9:00:00Z",` + edgeRest + `}`, true},
		{"ts Feb 29 leap year", `{"ts":"2020-02-29T00:00:00Z",` + edgeRest + `}`, true},
		{"ts Feb 29 common year", `{"ts":"2021-02-29T00:00:00Z",` + edgeRest + `}`, false},
		{"ts Feb 29 1900", `{"ts":"1900-02-29T00:00:00Z",` + edgeRest + `}`, false},
		{"ts Feb 29 2000", `{"ts":"2000-02-29T00:00:00Z",` + edgeRest + `}`, true},
		{"ts Apr 31", `{"ts":"2020-04-31T00:00:00Z",` + edgeRest + `}`, false},
		{"ts month 13", `{"ts":"2020-13-01T00:00:00Z",` + edgeRest + `}`, false},
		{"ts day 00", `{"ts":"2020-01-00T00:00:00Z",` + edgeRest + `}`, false},
		{"ts non-digit", `{"ts":"202x-01-01T00:00:00Z",` + edgeRest + `}`, false},
		{"ts no zone", `{"ts":"2020-02-27T09:00:00",` + edgeRest + `}`, false},
		{"ts date only", `{"ts":"2020-02-27",` + edgeRest + `}`, false},
		{"ts empty string", `{"ts":"",` + edgeRest + `}`, false},
		{"ts escaped", `{"ts":"2020-02-27T09:00:00\u005a",` + edgeRest + `}`, true},
		{"ts year 0001", `{"ts":"0001-01-01T00:00:00Z",` + edgeRest + `}`, true},
		{"ts year 9999", `{"ts":"9999-12-31T23:59:59.999999999Z",` + edgeRest + `}`, true},
		// The range guard (years 0001–9999).
		{"ts year 0000", `{"ts":"0000-12-31T23:59:59Z",` + edgeRest + `}`, false},
		{"ts offset into year 0000", `{"ts":"0001-01-01T00:00:00+01:00",` + edgeRest + `}`, false},
		{"ts offset into year 10000", `{"ts":"9999-12-31T23:59:59-01:00",` + edgeRest + `}`, false},
		{"ts 1e300", `{"ts":1e300,` + edgeRest + `}`, false},
		{"ts 9e18", `{"ts":9e18,` + edgeRest + `}`, false},
		{"ts -1e300", `{"ts":-1e300,` + edgeRest + `}`, false},
		{"ts 1e999", `{"ts":1e999,` + edgeRest + `}`, false},
		{"ts first second of year 10000", `{"ts":253402300800,` + edgeRest + `}`, false},
		{"ts last second of year 9999", `{"ts":253402300799,` + edgeRest + `}`, true},
		{"ts first second of year 0001", `{"ts":-62135596800,` + edgeRest + `}`, true},
		{"ts before year 0001", `{"ts":-62135596801,` + edgeRest + `}`, false},

		// Structure and whitespace.
		{"whitespace everywhere", " \t\r\n{ \"ts\" \t: \"2020-02-27T09:00:00Z\" , \"subject\" : { \"exe\" : \"a\" , \"pid\" : 1 } ,\r\n\"op\":\"read\" , \"object\":{ \"type\":\"file\" ,\"path\":\"/x\" } , \"x\" : [ 1 , { } , [ ] ] } \r\n", true},
		{"trailing carriage return", `{` + edgeTS + `,` + edgeRest + `}` + "\r", true},
		{"nested unknown values", `{"x":{"a":[1,2.5e-3,{"b":null,"c":[true,false,"s\n"]}],"":{}},"y":[],"z":{},` + edgeTS + `,` + edgeRest + `}`, true},
		{"unknown key inside entity", `{` + edgeTS + `,"subject":{"exe":"a","x":{"y":[1]}},"op":"read",` + edgeObj + `}`, true},
		{"trailing garbage", `{` + edgeTS + `,` + edgeRest + `}x`, false},
		{"second object", `{` + edgeTS + `,` + edgeRest + `}{}`, false},
		{"trailing comma", `{` + edgeTS + `,` + edgeRest + `,}`, false},
		{"leading comma", `{,` + edgeTS + `,` + edgeRest + `}`, false},
		{"trailing comma in ignored array", `{"x":[1,],` + edgeTS + `,` + edgeRest + `}`, false},
		{"missing colon", `{"ts" "2020-02-27T09:00:00Z",` + edgeRest + `}`, false},
		{"missing comma", `{` + edgeTS + ` ` + edgeRest + `}`, false},
		{"unquoted key", `{ts:1,` + edgeRest + `}`, false},
		{"truncated", `{` + edgeTS + `,` + edgeRest, false},
		{"truncated after colon", `{"ts":`, false},
		{"truncated literal", `{"x":tru,` + edgeTS + `,` + edgeRest + `}`, false},
		{"misspelt literal", `{"x":nul1,` + edgeTS + `,` + edgeRest + `}`, false},
		{"literal runs on", `{"x":truefalse,` + edgeTS + `,` + edgeRest + `}`, false},
		{"top-level array", `[1,2,3]`, false},
		{"top-level null", `null`, false},
		{"top-level string", `"x"`, false},
		{"top-level number", `12`, false},
		{"empty object", `{}`, false},
		{"nesting at the depth limit", deep(maxJSONDepth - 1), true},
		{"nesting past the depth limit", deep(maxJSONDepth), false},

		// Schema errors.
		{"missing object.type", `{` + edgeTS + `,` + edgeSubj + `,"op":"read","object":{"path":"/x"}}`, false},
		{"unknown object.type", `{` + edgeTS + `,` + edgeSubj + `,"op":"read","object":{"type":"widget"}}`, false},
		{"object.type is case-sensitive", `{` + edgeTS + `,` + edgeSubj + `,"op":"read","object":{"type":"File","path":"/x"}}`, false},
		{"op is case-sensitive", `{` + edgeTS + `,` + edgeSubj + `,"op":"Read",` + edgeObj + `}`, false},
		{"every op spelling", `{` + edgeTS + `,` + edgeSubj + `,"op":"terminate","object":{"type":"process","exe":"b","pid":2,"user":"u","cmdline":"b -x"}}`, true},
		{"ip aliases and default proto", `{` + edgeTS + `,` + edgeSubj + `,"op":"recv","object":{"type":"netconn","src_ip":"10.0.0.1"}}`, true},
		{"proc object without exe", `{` + edgeTS + `,` + edgeSubj + `,"op":"start","object":{"type":"proc","pid":2}}`, false},
		{"escaped Windows path", `{` + edgeTS + `,` + edgeSubj + `,"op":"read","object":{"type":"file","path":"C:\\Windows\\System32\\winevt\\Logs\\Security.evtx"},"amount":4823.1234567890123}`, true},
	}
	return append(lines, stringTerminatorLines()...)
}

// stringTerminatorLines puts each kind of byte that ends a run of plain
// string contents at each offset 0–17 of the subject's exe and of the
// object's path, the line's last value, so it lands on every byte of a
// word, in the word loop and in the tail after it. The plain bytes before
// it are the neighbours of the terminators (and DEL).
func stringTerminatorLines() []edgeLine {
	const filler = "!#[]~ \x7f"
	classes := []struct {
		name, term string
		ok         bool
	}{
		{"quote", ``, true},
		{"escape", `\\\"x`, true},
		{"NUL", "\x00", false},
		{"0x1f", "\x1f", false},
		{"0x80", "\x80", true},
		{"0xff", "\xff", true},
		{"2-byte UTF-8", "é", true},
		{"4-byte UTF-8", "😀", true},
	}
	var lines []edgeLine
	for _, c := range classes {
		for off := 0; off <= 17; off++ {
			s := strings.Repeat(filler, 3)[:off] + c.term
			lines = append(lines, edgeLine{
				fmt.Sprintf("string %s at offset %d", c.name, off),
				`{` + edgeTS + `,"subject":{"exe":"` + s + `"},"op":"read","object":{"type":"file","path":"` + s + `"}}`,
				c.ok && s != "", // an empty exe is missing
			})
		}
	}
	return lines
}

// sameDecode runs one input through the scanner and the oracle, each on a
// fresh decoder, and fails on any difference. The scanner's skipping path
// runs too, on decoders of its own: under a prefilter that admits nothing
// it must reach the oracle's verdict and, on success, skip the line at the
// event's time; under one that admits everything it must build the
// oracle's event.
func sameDecode(t *testing.T, data []byte) (err error) {
	t.Helper()
	opts := Options{DefaultAgent: "fallback"}
	var gotStats, wantStats InternStats
	opts.Intern = &gotStats
	dec, _ := New("ndjson", opts)
	opts.Intern = &wantStats
	ref := newRefNDJSON(opts)
	opts.Intern = nil
	none, _ := New("ndjson", opts)
	all, _ := New("ndjson", opts)

	// Twice through each, so the second pass resolves from a warm intern
	// table and still has to agree.
	for pass := 0; pass < 2; pass++ {
		got, gotErr := dec.Decode(data)
		want, wantErr := ref.Decode(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("scanner err = %v, oracle err = %v\ninput: %q", gotErr, wantErr, data)
		}
		if len(got) != len(want) {
			t.Fatalf("scanner emitted %d events, oracle %d\ninput: %q", len(got), len(want), data)
		}
		for i := range got {
			if diff := eventDiff(got[i], want[i]); diff != "" {
				t.Fatalf("pass %d: %s\nscanner: %+v\noracle:  %+v\ninput: %q", pass, diff, *got[i], *want[i], data)
			}
		}
		if g, w := gotStats.Hits.Load(), wantStats.Hits.Load(); g != w {
			t.Fatalf("pass %d: intern hits %d, oracle %d\ninput: %q", pass, g, w, data)
		}
		if g, w := gotStats.Misses.Load(), wantStats.Misses.Load(); g != w {
			t.Fatalf("pass %d: intern misses %d, oracle %d\ninput: %q", pass, g, w, data)
		}

		evs, ts, skip, noneErr := none.(Skipper).DecodeSkipping(data, admitNone)
		if (noneErr == nil) != (wantErr == nil) {
			t.Fatalf("admit-none err = %v, oracle err = %v\ninput: %q", noneErr, wantErr, data)
		}
		if len(evs) != 0 || skip != (len(want) == 1) {
			t.Fatalf("admit-none: %d events, skip %v; oracle %d events\ninput: %q", len(evs), skip, len(want), data)
		}
		if skip {
			if diff := timeDiff(ts, want[0].Time); diff != "" {
				t.Fatalf("pass %d: admit-none skip %s\ninput: %q", pass, diff, data)
			}
		}
		evs, _, skip, allErr := all.(Skipper).DecodeSkipping(data, admitAll)
		if (allErr == nil) != (wantErr == nil) || skip || len(evs) != len(want) {
			t.Fatalf("admit-all: %d events, skip %v, err %v; oracle %d events, err %v\ninput: %q", len(evs), skip, allErr, len(want), wantErr, data)
		}
		for i := range evs {
			if diff := eventDiff(evs[i], want[i]); diff != "" {
				t.Fatalf("pass %d: admit-all %s\nscanner: %+v\noracle:  %+v\ninput: %q", pass, diff, *evs[i], *want[i], data)
			}
		}
		err = gotErr
	}
	return err
}

// timeDiff says how two times differ, "" when they agree on the instant
// and on the location they carry.
func timeDiff(a, b time.Time) string {
	switch {
	case !a.Equal(b):
		return fmt.Sprintf("Time %v != %v", a, b)
	case (a.Location() == time.UTC) != (b.Location() == time.UTC), a.String() != b.String():
		return fmt.Sprintf("Time location %v != %v", a.Location(), b.Location())
	}
	return ""
}

// eventDiff names the first field two events differ in, "" when none do.
func eventDiff(a, b *event.Event) string {
	if diff := timeDiff(a.Time, b.Time); diff != "" {
		return diff
	}
	switch {
	case a.ID != b.ID, a.AgentID != b.AgentID, a.AgentSym != b.AgentSym, a.Op != b.Op:
		return "ID/AgentID/AgentSym/Op"
	case math.Float64bits(a.Amount) != math.Float64bits(b.Amount):
		return "Amount"
	case a.Subject != b.Subject:
		return "Subject"
	case a.Object != b.Object:
		return "Object"
	}
	return ""
}

func TestNDJSONEdgeLinesMatchReference(t *testing.T) {
	for _, c := range ndjsonEdgeLines() {
		t.Run(c.name, func(t *testing.T) {
			if err := sameDecode(t, []byte(c.line)); c.ok != (err == nil) {
				t.Fatalf("both decoders: err %v, table says ok = %v", err, c.ok)
			}
		})
	}
}

// FuzzNDJSONDifferential: for arbitrary bytes the scanner and the retained
// reference decoder agree on error-vs-success and, on success, on every
// Event field including symbol IDs and the time's location.
func FuzzNDJSONDifferential(f *testing.F) {
	for _, c := range ndjsonEdgeLines() {
		if len(c.line) < 4096 { // the depth-limit inputs only slow mutation down
			f.Add([]byte(c.line))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameDecode(t, data)
	})
}
