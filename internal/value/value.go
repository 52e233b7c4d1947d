// Package value implements the dynamic value system used throughout the SAQL
// engine: attribute values extracted from system events, aggregation results,
// invariant variables, and the operands of every SAQL expression.
//
// A Value is a small immutable tagged union over the types the SAQL language
// manipulates: strings, integers, floats, booleans, string sets, and null.
// Numeric operations promote integers to floats when the operands mix kinds,
// matching the paper's arithmetic over amounts and moving averages.
package value

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type held by a Value.
type Kind uint8

// The value kinds supported by the SAQL expression language.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
	KindSet
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindSet:
		return "set"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed SAQL value. The zero Value is Null.
type Value struct {
	kind Kind
	s    string
	i    int64
	f    float64
	b    bool
	set  map[string]struct{}
}

// Null is the null value (absent attribute, empty state).
var Null = Value{kind: KindNull}

// String constructs a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int constructs an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float constructs a float value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Bool constructs a boolean value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// EmptySet constructs an empty string-set value (SAQL's empty_set literal).
func EmptySet() Value { return Value{kind: KindSet, set: map[string]struct{}{}} }

// SetCopy constructs a set value holding a copy of the members of m, sized
// to them: the caller keeps m.
func SetCopy(m map[string]struct{}) Value {
	out := make(map[string]struct{}, len(m))
	for s := range m {
		out[s] = struct{}{}
	}
	return Value{kind: KindSet, set: out}
}

// SetOf constructs a set value holding the given members.
func SetOf(members ...string) Value {
	m := make(map[string]struct{}, len(members))
	for _, s := range members {
		m[s] = struct{}{}
	}
	return Value{kind: KindSet, set: m}
}

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload. It is only meaningful for KindString.
func (v Value) Str() string { return v.s }

// IntVal returns the integer payload. It is only meaningful for KindInt.
func (v Value) IntVal() int64 { return v.i }

// FloatVal returns the float payload. It is only meaningful for KindFloat.
func (v Value) FloatVal() float64 { return v.f }

// BoolVal returns the boolean payload. It is only meaningful for KindBool.
func (v Value) BoolVal() bool { return v.b }

// AsFloat converts numeric values to float64. The second result reports
// whether the conversion was possible.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// AsBool interprets v as a boolean condition: booleans directly, null as
// false. Other kinds report failure.
func (v Value) AsBool() (bool, bool) {
	switch v.kind {
	case KindBool:
		return v.b, true
	case KindNull:
		return false, true
	default:
		return false, false
	}
}

// IsNumeric reports whether v holds an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// SetLen returns the cardinality of a set value (0 for non-sets).
func (v Value) SetLen() int {
	if v.kind != KindSet {
		return 0
	}
	return len(v.set)
}

// SetContains reports whether a set value contains member s.
func (v Value) SetContains(s string) bool {
	if v.kind != KindSet {
		return false
	}
	_, ok := v.set[s]
	return ok
}

// SetMembers returns the sorted members of a set value.
func (v Value) SetMembers() []string {
	if v.kind != KindSet {
		return nil
	}
	out := make([]string, 0, len(v.set))
	for s := range v.set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Union returns the set union of two set values.
func (v Value) Union(o Value) (Value, error) {
	if v.kind != KindSet || o.kind != KindSet {
		return Null, fmt.Errorf("value: union requires sets, got %s and %s", v.kind, o.kind)
	}
	m := make(map[string]struct{}, len(v.set)+len(o.set))
	for s := range v.set {
		m[s] = struct{}{}
	}
	for s := range o.set {
		m[s] = struct{}{}
	}
	return Value{kind: KindSet, set: m}, nil
}

// Diff returns the set difference v \ o.
func (v Value) Diff(o Value) (Value, error) {
	if v.kind != KindSet || o.kind != KindSet {
		return Null, fmt.Errorf("value: diff requires sets, got %s and %s", v.kind, o.kind)
	}
	m := make(map[string]struct{})
	for s := range v.set {
		if _, ok := o.set[s]; !ok {
			m[s] = struct{}{}
		}
	}
	return Value{kind: KindSet, set: m}, nil
}

// Intersect returns the set intersection of two set values.
func (v Value) Intersect(o Value) (Value, error) {
	if v.kind != KindSet || o.kind != KindSet {
		return Null, fmt.Errorf("value: intersect requires sets, got %s and %s", v.kind, o.kind)
	}
	m := make(map[string]struct{})
	for s := range v.set {
		if _, ok := o.set[s]; ok {
			m[s] = struct{}{}
		}
	}
	return Value{kind: KindSet, set: m}, nil
}

// Equal reports deep equality between two values. Numeric values compare by
// magnitude across int/float kinds; sets compare by membership.
func (v Value) Equal(o Value) bool {
	if v.IsNumeric() && o.IsNumeric() {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		return a == b
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindString:
		return v.s == o.s
	case KindBool:
		return v.b == o.b
	case KindSet:
		if len(v.set) != len(o.set) {
			return false
		}
		for s := range v.set {
			if _, ok := o.set[s]; !ok {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Compare orders two values: -1 if v<o, 0 if equal, +1 if v>o. Only numeric
// pairs and string pairs are ordered; anything else is an error.
func (v Value) Compare(o Value) (int, error) {
	if v.IsNumeric() && o.IsNumeric() {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.kind == KindString && o.kind == KindString {
		return strings.Compare(v.s, o.s), nil
	}
	return 0, fmt.Errorf("value: cannot order %s against %s", v.kind, o.kind)
}

// Arith applies a binary arithmetic operator (+ - * / %) to two numeric
// values. Division by zero and modulo by zero are errors. Integer pairs stay
// integral except for /, which always yields a float to match SAQL averaging
// semantics (Query 2 divides a sum of averages by 3).
func (v Value) Arith(op byte, o Value) (Value, error) {
	if !v.IsNumeric() || !o.IsNumeric() {
		return Null, fmt.Errorf("value: arithmetic %c requires numbers, got %s and %s", op, v.kind, o.kind)
	}
	if v.kind == KindInt && o.kind == KindInt && op != '/' {
		a, b := v.i, o.i
		switch op {
		case '+':
			return Int(a + b), nil
		case '-':
			return Int(a - b), nil
		case '*':
			return Int(a * b), nil
		case '%':
			if b == 0 {
				return Null, fmt.Errorf("value: modulo by zero")
			}
			return Int(a % b), nil
		}
	}
	a, _ := v.AsFloat()
	b, _ := o.AsFloat()
	switch op {
	case '+':
		return Float(a + b), nil
	case '-':
		return Float(a - b), nil
	case '*':
		return Float(a * b), nil
	case '/':
		if b == 0 {
			return Null, fmt.Errorf("value: division by zero")
		}
		return Float(a / b), nil
	case '%':
		if b == 0 {
			return Null, fmt.Errorf("value: modulo by zero")
		}
		return Float(math.Mod(a, b)), nil
	default:
		return Null, fmt.Errorf("value: unknown arithmetic operator %c", op)
	}
}

// Neg returns the arithmetic negation of a numeric value.
func (v Value) Neg() (Value, error) {
	switch v.kind {
	case KindInt:
		return Int(-v.i), nil
	case KindFloat:
		return Float(-v.f), nil
	default:
		return Null, fmt.Errorf("value: cannot negate %s", v.kind)
	}
}

// String renders the value the way the SAQL CLI prints alert attributes.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		// Trim trailing zeros for readability but keep precision for
		// alert thresholds such as 10000.0.
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindSet:
		return "{" + strings.Join(v.SetMembers(), ", ") + "}"
	default:
		return "?"
	}
}

// EqualFold reports SAQL expression equality, the semantics of == and !=:
// exact for non-strings, case-insensitive for strings, with SQL-LIKE '%'
// wildcards when exactly one string operand contains '%' (the paper's alert
// conditions use "%osql.exe" patterns).
func EqualFold(l, r Value) bool {
	if l.kind == KindString && r.kind == KindString {
		lw, rw := strings.Contains(l.s, "%"), strings.Contains(r.s, "%")
		switch {
		case rw && !lw:
			return WildcardMatch(r.s, l.s)
		case lw && !rw:
			return WildcardMatch(l.s, r.s)
		default:
			return strings.EqualFold(l.s, r.s)
		}
	}
	return l.Equal(r)
}

// Text is v.String() read in place. Calling String on a value that was only
// just written (a program's result on its operand stack) copies all of it into
// the call, and the copy stalls on the pending stores; a group key is nearly
// always a string, and reading that one field spares the copy (8 ns per key
// on the routing goroutine, measured).
func (v *Value) Text() string {
	if v.kind == KindString {
		return v.s
	}
	return v.String()
}

// WildcardMatch reports whether s matches pattern, where '%' in pattern
// matches any run of characters (SQL LIKE-style, as used by SAQL entity
// constraints such as ["%osql.exe"]). Matching is case-insensitive, matching
// the case-insensitive file systems the paper's Windows hosts use.
func WildcardMatch(pattern, s string) bool {
	p := strings.ToLower(pattern)
	t := strings.ToLower(s)
	return likeMatch(p, t)
}

func likeMatch(p, s string) bool {
	// Dynamic-programming-free two-pointer LIKE matcher with backtracking
	// over the last '%' seen; runs in O(len(p)*len(s)) worst case but is
	// linear for the common single-wildcard patterns in queries.
	var pi, si int
	star := -1
	match := 0
	for si < len(s) {
		if pi < len(p) && (p[pi] == s[si]) {
			pi++
			si++
			continue
		}
		if pi < len(p) && p[pi] == '%' {
			star = pi
			match = si
			pi++
			continue
		}
		if star != -1 {
			pi = star + 1
			match++
			si = match
			continue
		}
		return false
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
