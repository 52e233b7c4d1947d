package agg

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"saql/internal/value"
)

func mustNew(t *testing.T, name string, params ...value.Value) Aggregator {
	t.Helper()
	a, err := New(name, params)
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	return a
}

// add folds one value, as a caller folding value by value does.
func add(a Aggregator, v value.Value) error {
	_, err := a.AddAll([]value.Value{v})
	return err
}

func addFloats(t *testing.T, a Aggregator, vals ...float64) {
	t.Helper()
	for _, v := range vals {
		if err := add(a, value.Float(v)); err != nil {
			t.Fatal(err)
		}
	}
}

func resultFloat(t *testing.T, a Aggregator) float64 {
	t.Helper()
	f, ok := a.Result().AsFloat()
	if !ok {
		t.Fatalf("result %v is not numeric", a.Result())
	}
	return f
}

func TestAvg(t *testing.T) {
	a := mustNew(t, "avg")
	addFloats(t, a, 10, 20, 30)
	if got := resultFloat(t, a); got != 20 {
		t.Errorf("avg = %v, want 20", got)
	}
	a.Reset()
	if got := resultFloat(t, a); got != 0 {
		t.Errorf("avg after reset = %v, want 0", got)
	}
}

func TestSumAndCount(t *testing.T) {
	s := mustNew(t, "sum")
	addFloats(t, s, 1.5, 2.5)
	if got := resultFloat(t, s); got != 4 {
		t.Errorf("sum = %v", got)
	}
	c := mustNew(t, "count")
	// count accepts any value kind.
	_ = add(c, value.String("x"))
	_ = add(c, value.Int(1))
	_ = add(c, value.Null)
	if got := c.Result().IntVal(); got != 3 {
		t.Errorf("count = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	mn := mustNew(t, "min")
	mx := mustNew(t, "max")
	addFloats(t, mn, 5, -2, 9)
	addFloats(t, mx, 5, -2, 9)
	if got := resultFloat(t, mn); got != -2 {
		t.Errorf("min = %v", got)
	}
	if got := resultFloat(t, mx); got != 9 {
		t.Errorf("max = %v", got)
	}
	empty := mustNew(t, "min")
	if !empty.Result().IsNull() {
		t.Error("min of empty input should be null")
	}
}

func TestSetAndDistinct(t *testing.T) {
	s := mustNew(t, "set")
	for _, v := range []string{"a", "b", "a", "c"} {
		_ = add(s, value.String(v))
	}
	res := s.Result()
	if res.SetLen() != 3 || !res.SetContains("b") {
		t.Errorf("set = %v", res)
	}
	d := mustNew(t, "distinct")
	for _, v := range []string{"a", "b", "a"} {
		_ = add(d, value.String(v))
	}
	if got := d.Result().IntVal(); got != 2 {
		t.Errorf("distinct = %v", got)
	}
}

func TestStddevVariance(t *testing.T) {
	sd := mustNew(t, "stddev")
	addFloats(t, sd, 2, 4, 4, 4, 5, 5, 7, 9)
	// Sample stddev of this classic dataset is ~2.138.
	if got := resultFloat(t, sd); math.Abs(got-2.138089935299395) > 1e-9 {
		t.Errorf("stddev = %v", got)
	}
	va := mustNew(t, "variance")
	addFloats(t, va, 2, 4, 4, 4, 5, 5, 7, 9)
	if got := resultFloat(t, va); math.Abs(got-4.571428571428571) > 1e-9 {
		t.Errorf("variance = %v", got)
	}
	one := mustNew(t, "stddev")
	addFloats(t, one, 5)
	if got := resultFloat(t, one); got != 0 {
		t.Errorf("stddev of single value = %v, want 0", got)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	m := mustNew(t, "median")
	addFloats(t, m, 9, 1, 5)
	if got := resultFloat(t, m); got != 5 {
		t.Errorf("median = %v", got)
	}
	p95 := mustNew(t, "percentile", value.Int(95))
	for i := 1; i <= 100; i++ {
		addFloats(t, p95, float64(i))
	}
	if got := resultFloat(t, p95); math.Abs(got-95.05) > 0.01 {
		t.Errorf("p95 = %v", got)
	}
	if _, err := New("percentile", nil); err == nil {
		t.Error("percentile without parameter should fail")
	}
	if _, err := New("percentile", []value.Value{value.Int(200)}); err == nil {
		t.Error("percentile(200) should fail")
	}
}

func TestFirstLast(t *testing.T) {
	f := mustNew(t, "first")
	l := mustNew(t, "last")
	for _, v := range []string{"a", "b", "c"} {
		_ = add(f, value.String(v))
		_ = add(l, value.String(v))
	}
	if f.Result().Str() != "a" || l.Result().Str() != "c" {
		t.Errorf("first/last = %v/%v", f.Result(), l.Result())
	}
}

func TestNumericAggRejectsStrings(t *testing.T) {
	for _, name := range []string{"avg", "sum", "min", "max", "stddev", "variance", "median"} {
		a := mustNew(t, name)
		if err := add(a, value.String("x")); err == nil {
			t.Errorf("%s should reject string input", name)
		}
	}
}

func TestRegistry(t *testing.T) {
	if !IsAggregator("avg") || IsAggregator("nope") {
		t.Error("IsAggregator misbehaving")
	}
	if _, err := New("nope", nil); err == nil {
		t.Error("unknown aggregator should fail")
	}
	if _, err := New("avg", []value.Value{value.Int(1)}); err == nil {
		t.Error("avg with parameters should fail")
	}
	names := Names()
	if !sort.StringsAreSorted(names) || len(names) < 10 {
		t.Errorf("Names() = %v", names)
	}
}

// Property: avg is always between min and max of the inputs.
func TestAvgBoundsProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		a := mustNewQuick("avg")
		mn := mustNewQuick("min")
		mx := mustNewQuick("max")
		for _, r := range raw {
			v := value.Float(float64(r))
			_ = add(a, v)
			_ = add(mn, v)
			_ = add(mx, v)
		}
		av, _ := a.Result().AsFloat()
		lo, _ := mn.Result().AsFloat()
		hi, _ := mx.Result().AsFloat()
		return av >= lo-1e-9 && av <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: sum equals count times avg.
func TestSumAvgCountConsistency(t *testing.T) {
	f := func(raw []int16) bool {
		s := mustNewQuick("sum")
		a := mustNewQuick("avg")
		c := mustNewQuick("count")
		for _, r := range raw {
			v := value.Float(float64(r))
			_ = add(s, v)
			_ = add(a, v)
			_ = add(c, v)
		}
		sv, _ := s.Result().AsFloat()
		av, _ := a.Result().AsFloat()
		cv := float64(c.Result().IntVal())
		return math.Abs(sv-av*cv) < 1e-6*(1+math.Abs(sv))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: set cardinality equals the number of distinct string inputs.
func TestSetCardinalityProperty(t *testing.T) {
	f := func(raw []string) bool {
		s := mustNewQuick("set")
		uniq := map[string]bool{}
		for _, r := range raw {
			_ = add(s, value.String(r))
			uniq[value.String(r).String()] = true
		}
		return s.Result().SetLen() == len(uniq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mustNewQuick(name string) Aggregator {
	a, err := New(name, nil)
	if err != nil {
		panic(err)
	}
	return a
}

// The state maintainer resets a closed window's aggregators and reuses them
// for a later window's groups: a reset aggregator is a fresh one (same result,
// same checkpoint bytes), and a result taken before the reset stays as it was
// through the reset and the folds after it.
func TestResetReusesWithoutAliasing(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			var params []value.Value
			if name == "percentile" {
				params = []value.Value{value.Int(90)}
			}
			a := mustNew(t, name, params...)
			if _, err := a.AddAll([]value.Value{value.Int(3), value.Int(1), value.Int(2)}); err != nil {
				t.Fatal(err)
			}
			before := a.Result()
			rendered := before.String()
			a.Reset()
			fresh := mustNew(t, name, params...)
			if got, want := a.Result().String(), fresh.Result().String(); got != want {
				t.Errorf("reset result %s, a fresh aggregator's %s", got, want)
			}
			got, err := AppendState(nil, a)
			if err != nil {
				t.Fatal(err)
			}
			want, err := AppendState(nil, fresh)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("reset state %x, a fresh aggregator's %x", got, want)
			}
			if _, err := a.AddAll([]value.Value{value.Int(7), value.Int(9)}); err != nil {
				t.Fatal(err)
			}
			if before.String() != rendered {
				t.Errorf("a result taken before Reset changed to %s, was %s", before, rendered)
			}
		})
	}
}
