// Package agg implements the aggregation functions available inside SAQL
// state blocks: avg, sum, count, min, max, set, distinct (count), stddev,
// variance, median, percentile, first, and last. The state maintainer keeps
// one aggregator per state field per group of an open window and streams
// matched event attribute values into it, a run of them at a time; Result is
// taken when the window closes, and Reset readies the aggregator for a group
// of a later window.
package agg

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"saql/internal/value"
)

// Aggregator accumulates values for one state field within one window.
type Aggregator interface {
	// AddAll folds vs into the aggregate in order, as far as the first value
	// it cannot take, and returns how many it folded: len(vs), or the index
	// of that value, which it leaves out, with its error. Non-numeric values
	// are an error for numeric aggregators; set aggregators stringify. A
	// caller folds the rest from vs[n+1:], so one call per value and one per
	// run fold the same values into the same state.
	AddAll(vs []value.Value) (n int, err error)
	// Result returns the aggregate for the closing window. The value shares
	// no storage with the aggregator: it stays as it is through a Reset and
	// the folds after it.
	Result() value.Value
	// Reset clears the aggregator for reuse in a later window, keeping the
	// storage it grew.
	Reset()
}

// Factory creates fresh aggregators; params are the extra literal arguments
// of the call (e.g. the 95 in percentile(x, 95)).
type Factory func(params []value.Value) (Aggregator, error)

var registry = map[string]Factory{
	"avg":   func(p []value.Value) (Aggregator, error) { return noParams("avg", p, &meanAgg{}) },
	"mean":  func(p []value.Value) (Aggregator, error) { return noParams("mean", p, &meanAgg{}) },
	"sum":   func(p []value.Value) (Aggregator, error) { return noParams("sum", p, &sumAgg{}) },
	"count": func(p []value.Value) (Aggregator, error) { return noParams("count", p, &countAgg{}) },
	"min":   func(p []value.Value) (Aggregator, error) { return noParams("min", p, &minMaxAgg{isMin: true}) },
	"max":   func(p []value.Value) (Aggregator, error) { return noParams("max", p, &minMaxAgg{}) },
	"set":   func(p []value.Value) (Aggregator, error) { return noParams("set", p, newSetAgg()) },
	"distinct": func(p []value.Value) (Aggregator, error) {
		return noParams("distinct", p, &distinctAgg{set: newSetAgg()})
	},
	"stddev": func(p []value.Value) (Aggregator, error) {
		return noParams("stddev", p, &varianceAgg{sample: true, sqrt: true})
	},
	"variance": func(p []value.Value) (Aggregator, error) { return noParams("variance", p, &varianceAgg{sample: true}) },
	"median":   func(p []value.Value) (Aggregator, error) { return noParams("median", p, &percentileAgg{pct: 50}) },
	"first":    func(p []value.Value) (Aggregator, error) { return noParams("first", p, &firstLastAgg{first: true}) },
	"last":     func(p []value.Value) (Aggregator, error) { return noParams("last", p, &firstLastAgg{}) },
	"percentile": func(p []value.Value) (Aggregator, error) {
		if len(p) != 1 {
			return nil, fmt.Errorf("agg: percentile requires one parameter, got %d", len(p))
		}
		pct, ok := p[0].AsFloat()
		if !ok || pct < 0 || pct > 100 {
			return nil, fmt.Errorf("agg: percentile parameter must be a number in [0,100], got %v", p[0])
		}
		return &percentileAgg{pct: pct}, nil
	},
}

func noParams(name string, p []value.Value, a Aggregator) (Aggregator, error) {
	if len(p) != 0 {
		return nil, fmt.Errorf("agg: %s takes no extra parameters, got %d", name, len(p))
	}
	return a, nil
}

// IsAggregator reports whether name is a registered aggregation function.
func IsAggregator(name string) bool {
	_, ok := registry[name]
	return ok
}

// FactoryFor resolves an aggregation function name once, for callers that
// create many aggregators of one kind (one per group per window).
func FactoryFor(name string) (Factory, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("agg: unknown aggregation function %q", name)
	}
	return f, nil
}

// New creates an aggregator by name.
func New(name string, params []value.Value) (Aggregator, error) {
	f, err := FactoryFor(name)
	if err != nil {
		return nil, err
	}
	return f(params)
}

// Names returns the sorted list of registered aggregation function names.
func Names() []string { return slices.Sorted(maps.Keys(registry)) }

// --------------------------------------------------------------------------

type meanAgg struct {
	sum float64
	n   int
}

//saql:hotpath
func (a *meanAgg) AddAll(vs []value.Value) (int, error) {
	for i := range vs {
		f, ok := vs[i].AsFloat()
		if !ok {
			return i, fmt.Errorf("agg: avg requires numeric input, got %s", vs[i].Kind())
		}
		a.sum += f
		a.n++
	}
	return len(vs), nil
}

func (a *meanAgg) Result() value.Value {
	if a.n == 0 {
		return value.Float(0)
	}
	return value.Float(a.sum / float64(a.n))
}

func (a *meanAgg) Reset() { a.sum, a.n = 0, 0 }

type sumAgg struct{ sum float64 }

//saql:hotpath
func (a *sumAgg) AddAll(vs []value.Value) (int, error) {
	for i := range vs {
		f, ok := vs[i].AsFloat()
		if !ok {
			return i, fmt.Errorf("agg: sum requires numeric input, got %s", vs[i].Kind())
		}
		a.sum += f
	}
	return len(vs), nil
}

func (a *sumAgg) Result() value.Value { return value.Float(a.sum) }
func (a *sumAgg) Reset()              { a.sum = 0 }

type countAgg struct{ n int64 }

//saql:hotpath
func (a *countAgg) AddAll(vs []value.Value) (int, error) {
	a.n += int64(len(vs))
	return len(vs), nil
}

func (a *countAgg) Result() value.Value { return value.Int(a.n) }
func (a *countAgg) Reset()              { a.n = 0 }

type minMaxAgg struct {
	isMin bool
	cur   float64
	seen  bool
}

//saql:hotpath
func (a *minMaxAgg) AddAll(vs []value.Value) (int, error) {
	for i := range vs {
		f, ok := vs[i].AsFloat()
		if !ok {
			return i, fmt.Errorf("agg: min/max requires numeric input, got %s", vs[i].Kind())
		}
		if !a.seen || (a.isMin && f < a.cur) || (!a.isMin && f > a.cur) {
			a.cur, a.seen = f, true
		}
	}
	return len(vs), nil
}

func (a *minMaxAgg) Result() value.Value {
	if !a.seen {
		return value.Null
	}
	return value.Float(a.cur)
}

func (a *minMaxAgg) Reset() { a.cur, a.seen = 0, false }

type setAgg struct{ members map[string]struct{} }

func newSetAgg() *setAgg { return &setAgg{members: map[string]struct{}{}} }

//saql:hotpath
func (a *setAgg) AddAll(vs []value.Value) (int, error) {
	for i := range vs {
		a.members[vs[i].String()] = struct{}{}
	}
	return len(vs), nil
}

func (a *setAgg) Result() value.Value { return value.SetCopy(a.members) }

func (a *setAgg) Reset() { clear(a.members) }

type distinctAgg struct{ set *setAgg }

//saql:hotpath
func (a *distinctAgg) AddAll(vs []value.Value) (int, error) { return a.set.AddAll(vs) }

func (a *distinctAgg) Result() value.Value { return value.Int(int64(len(a.set.members))) }
func (a *distinctAgg) Reset()              { a.set.Reset() }

// varianceAgg implements Welford's online algorithm for numeric stability.
type varianceAgg struct {
	sample bool // sample (n-1) vs population (n)
	sqrt   bool // stddev vs variance
	n      int
	mean   float64
	m2     float64
}

//saql:hotpath
func (a *varianceAgg) AddAll(vs []value.Value) (int, error) {
	for i := range vs {
		f, ok := vs[i].AsFloat()
		if !ok {
			return i, fmt.Errorf("agg: stddev/variance requires numeric input, got %s", vs[i].Kind())
		}
		a.n++
		d := f - a.mean
		a.mean += d / float64(a.n)
		a.m2 += d * (f - a.mean)
	}
	return len(vs), nil
}

func (a *varianceAgg) Result() value.Value {
	if a.n < 2 {
		return value.Float(0)
	}
	div := float64(a.n)
	if a.sample {
		div = float64(a.n - 1)
	}
	v := a.m2 / div
	if a.sqrt {
		v = math.Sqrt(v)
	}
	return value.Float(v)
}

func (a *varianceAgg) Reset() { a.n, a.mean, a.m2 = 0, 0, 0 }

type percentileAgg struct {
	pct  float64
	vals []float64
}

//saql:hotpath
func (a *percentileAgg) AddAll(vs []value.Value) (int, error) {
	for i := range vs {
		f, ok := vs[i].AsFloat()
		if !ok {
			return i, fmt.Errorf("agg: percentile/median requires numeric input, got %s", vs[i].Kind())
		}
		a.vals = append(a.vals, f)
	}
	return len(vs), nil
}

func (a *percentileAgg) Result() value.Value {
	if len(a.vals) == 0 {
		return value.Float(0)
	}
	s := make([]float64, len(a.vals))
	copy(s, a.vals)
	sort.Float64s(s)
	// Linear interpolation between closest ranks.
	rank := a.pct / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return value.Float(s[lo])
	}
	frac := rank - float64(lo)
	return value.Float(s[lo]*(1-frac) + s[hi]*frac)
}

func (a *percentileAgg) Reset() { a.vals = a.vals[:0] }

type firstLastAgg struct {
	first bool
	val   value.Value
	seen  bool
}

//saql:hotpath
func (a *firstLastAgg) AddAll(vs []value.Value) (int, error) {
	switch {
	case len(vs) == 0 || a.first && a.seen:
	case a.first:
		a.val, a.seen = vs[0], true
	default:
		a.val, a.seen = vs[len(vs)-1], true
	}
	return len(vs), nil
}

func (a *firstLastAgg) Result() value.Value {
	if !a.seen {
		return value.Null
	}
	return a.val
}

func (a *firstLastAgg) Reset() { a.val, a.seen = value.Null, false }
