// Package symtab maintains the process-global symbol dictionary backing the
// compiled-predicate fast path: hot low-cardinality attribute strings (exe
// names, users, agent IDs, IPs, protocols) are assigned stable small-integer
// symbol IDs, so a compiled equality predicate reduces to one uint32 compare
// instead of a case-folded string comparison per event.
//
// The dictionary is canonical under ASCII case folding — two strings share a
// symbol iff their lower-cased forms are byte-equal — which matches the
// engine's case-insensitive constraint semantics (value.WildcardMatch lowers
// both sides before comparing). Only pure-ASCII strings are admitted: Unicode
// case folding has edge cases (dotted I, Kelvin sign) where ToLower equality
// and symbol equality could diverge, so non-ASCII values simply never get a
// symbol and compiled predicates fall back to the exact string path.
//
// Symbol IDs are process-local and assignment-order dependent. They are NEVER
// persisted: the wire, journal, and snapshot codecs serialise the string
// fields only, and events decoded without symbols (ID 0) evaluate through the
// string fallback with identical results.
package symtab

import (
	"strings"
	"sync"
)

const (
	// MaxEntries bounds the dictionary so adversarial high-cardinality input
	// cannot grow it without limit; once full, new strings stay symbol-less.
	MaxEntries = 1 << 16
	// MaxLen bounds admitted string length, mirroring the codec intern
	// tables: values longer than this are high-cardinality by construction.
	MaxLen = 128
)

var (
	mu  sync.RWMutex
	ids = map[string]uint32{} // lower-cased canonical form -> symbol (1-based)
)

// Intern returns the symbol ID for s, assigning one on first sight. It
// returns 0 (no symbol) for empty, over-long, or non-ASCII strings, and for
// new strings once the dictionary is full. Interning is keyed on the
// lower-cased form, so "CMD.EXE" and "cmd.exe" share a symbol.
func Intern(s string) uint32 {
	if s == "" || len(s) > MaxLen || !isASCII(s) {
		return 0
	}
	canon := strings.ToLower(s)
	mu.RLock()
	id := ids[canon]
	mu.RUnlock()
	if id != 0 {
		return id
	}
	mu.Lock()
	defer mu.Unlock()
	if id := ids[canon]; id != 0 {
		return id
	}
	if len(ids) >= MaxEntries {
		return 0
	}
	id = uint32(len(ids) + 1)
	ids[canon] = id
	return id
}

// Lookup returns s's symbol ID without assigning one: 0 when s has never
// been interned (or is inadmissible).
func Lookup(s string) uint32 {
	if s == "" || len(s) > MaxLen || !isASCII(s) {
		return 0
	}
	canon := strings.ToLower(s)
	mu.RLock()
	id := ids[canon]
	mu.RUnlock()
	return id
}

// isASCII reports whether s contains only 7-bit bytes. Only such strings are
// admitted: for them, Unicode ToLower equality coincides with ASCII case
// folding, so symbol equality exactly reproduces WildcardMatch equality.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}
