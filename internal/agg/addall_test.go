package agg

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"saql/internal/value"
	"saql/internal/wire"
)

// fuzzValues decodes data into values, two bytes each: the kind — null, an
// integer, a float (NaN and ±Inf among them), a string (some of them
// numerals) or a bool — and its payload.
func fuzzValues(data []byte) []value.Value {
	var vs []value.Value
	for i := 0; i+1 < len(data); i += 2 {
		b := data[i+1]
		switch data[i] % 5 {
		case 0:
			vs = append(vs, value.Null)
		case 1:
			vs = append(vs, value.Int(int64(int8(b))))
		case 2:
			f := float64(int8(b)) / 4
			switch b {
			case 0x7f:
				f = math.NaN()
			case 0x7e:
				f = math.Inf(1)
			case 0x80:
				f = math.Inf(-1)
			}
			vs = append(vs, value.Float(f))
		case 3:
			vs = append(vs, value.String(fmt.Sprint(b%7)))
		default:
			vs = append(vs, value.Bool(b%2 == 0))
		}
	}
	return vs
}

// addOutcome is what folding values into an aggregator left: the indexes of
// the values it refused, their errors, its result and its state, encoded.
type addOutcome struct {
	failed []int
	errs   []string
	result []byte
	state  []byte
}

// foldValues folds vs into a fresh aggregator of the named function, split
// into AddAll calls of at most step values (all the rest at 0), each going on
// after the value the last refused.
func foldValues(t *testing.T, name string, vs []value.Value, step int) addOutcome {
	t.Helper()
	var params []value.Value
	if name == "percentile" {
		params = []value.Value{value.Int(90)}
	}
	a, err := New(name, params)
	if err != nil {
		t.Fatal(err)
	}
	var o addOutcome
	for off := 0; off < len(vs); {
		end := len(vs)
		if step > 0 {
			end = min(off+step, len(vs))
		}
		n, err := a.AddAll(vs[off:end])
		if err == nil {
			if n != end-off {
				t.Fatalf("%s: AddAll of %d values folded %d without an error", name, end-off, n)
			}
			off = end
			continue
		}
		if n < 0 || n >= end-off {
			t.Fatalf("%s: AddAll of %d values failed at %d", name, end-off, n)
		}
		o.failed, o.errs = append(o.failed, off+n), append(o.errs, err.Error())
		off += n + 1
	}
	o.result = wire.AppendValue(nil, a.Result())
	if o.state, err = AppendState(nil, a); err != nil {
		t.Fatal(err)
	}
	return o
}

// FuzzAggAddAll: for every registered aggregator, folding a slice of values
// in AddAll calls of any length — the whole slice, or runs of step values —
// refuses the same values with the same errors, and leaves the same result
// and the same state encoding, as folding them one AddAll per value.
func FuzzAggAddAll(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 3, 2, 8, 1, 0xfe, 2, 0x40}, uint8(0))             // numbers
	f.Add([]byte{3, 1, 3, 2, 3, 1, 0, 0}, uint8(2))                   // strings and a null
	f.Add([]byte{1, 5, 3, 4, 2, 9, 4, 1, 0, 0, 2, 2, 1, 7}, uint8(3)) // mixed
	f.Add([]byte{2, 0x7f, 2, 3, 2, 0x7e, 2, 0x80, 1, 1}, uint8(1))    // NaN and the infinities
	f.Add([]byte{3, 0, 1, 2, 3, 5, 1, 4, 3, 6, 2, 2}, uint8(4))       // numeric runs cut by strings
	f.Fuzz(func(t *testing.T, data []byte, step uint8) {
		vs := fuzzValues(data)
		for _, name := range Names() {
			one := foldValues(t, name, vs, 1)
			for _, s := range []int{0, int(step % 8)} {
				got := foldValues(t, name, vs, s)
				if !slices.Equal(got.failed, one.failed) || !slices.Equal(got.errs, one.errs) {
					t.Fatalf("%s, runs of %d: refused %v %q, one by one %v %q", name, s, got.failed, got.errs, one.failed, one.errs)
				}
				if !bytes.Equal(got.result, one.result) {
					t.Fatalf("%s, runs of %d: result %x, one by one %x", name, s, got.result, one.result)
				}
				if !bytes.Equal(got.state, one.state) {
					t.Fatalf("%s, runs of %d: state %x, one by one %x", name, s, got.state, one.state)
				}
			}
		}
	})
}
