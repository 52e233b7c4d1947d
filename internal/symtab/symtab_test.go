package symtab

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// The table is process-global and never shrinks, so the case that fills it
// must run last: subtests run in source order even under -shuffle.
func TestSymtab(t *testing.T) {
	t.Run("inadmissible strings get no symbol", inadmissibleStringsGetNoSymbol)
	t.Run("case-fold variants share a stable ID", caseFoldVariantsShareStableID)
	t.Run("Lookup never assigns", lookupNeverAssigns)
	t.Run("concurrent Intern yields one ID per canonical form", concurrentInternOneIDPerCanonicalForm)
	t.Run("a full table refuses new strings", fullTableRefusesNewStrings)
}

func inadmissibleStringsGetNoSymbol(t *testing.T) {
	for name, s := range map[string]string{
		"empty":     "",
		"over-long": strings.Repeat("a", MaxLen+1),
		"non-ascii": "café.exe",
		"kelvin":    "K.exe", // ToLower folds it to ASCII "k": must still be refused
	} {
		if id := Intern(s); id != 0 {
			t.Errorf("%s: Intern = %d, want 0", name, id)
		}
		if id := Lookup(s); id != 0 {
			t.Errorf("%s: Lookup = %d, want 0", name, id)
		}
	}
	if id := Intern(strings.Repeat("b", MaxLen)); id == 0 {
		t.Errorf("a MaxLen-byte ASCII string was refused")
	}
}

func caseFoldVariantsShareStableID(t *testing.T) {
	id := Intern("Symtab-Fold.EXE")
	if id == 0 {
		t.Fatal("admissible string got no symbol")
	}
	for _, v := range []string{"symtab-fold.exe", "SYMTAB-FOLD.EXE", "Symtab-Fold.EXE"} {
		if got := Intern(v); got != id {
			t.Errorf("Intern(%q) = %d, want %d", v, got, id)
		}
		if got := Lookup(v); got != id {
			t.Errorf("Lookup(%q) = %d, want %d", v, got, id)
		}
	}
	if other := Intern("symtab-fold.ex"); other == id || other == 0 {
		t.Errorf("distinct string got symbol %d (first string has %d)", other, id)
	}
}

// entries reports how many symbols the dictionary has assigned.
func entries() int {
	mu.RLock()
	defer mu.RUnlock()
	return len(ids)
}

func lookupNeverAssigns(t *testing.T) {
	before := entries()
	if id := Lookup("symtab-never-interned"); id != 0 {
		t.Errorf("Lookup of an unseen string = %d, want 0", id)
	}
	if after := entries(); after != before {
		t.Errorf("Lookup grew the table: %d -> %d entries", before, after)
	}
	if id := Lookup("symtab-never-interned"); id != 0 {
		t.Errorf("second Lookup = %d, want 0", id)
	}
}

// Overlapping strings in assorted casings, each worker in its own order
// (meaningful under -race).
func concurrentInternOneIDPerCanonicalForm(t *testing.T) {
	const workers, forms = 8, 64
	got := make([][forms]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < forms; i++ {
				s := fmt.Sprintf("symtab-conc-%d.exe", (i+w)%forms) // every worker, its own order
				if w%2 == 1 {
					s = strings.ToUpper(s)
				}
				got[w][(i+w)%forms] = Intern(s)
			}
		}(w)
	}
	wg.Wait()
	seen := map[uint32]int{}
	for i := 0; i < forms; i++ {
		id := got[0][i]
		if id == 0 {
			t.Fatalf("form %d got no symbol", i)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("forms %d and %d share symbol %d", prev, i, id)
		}
		seen[id] = i
		for w := 1; w < workers; w++ {
			if got[w][i] != id {
				t.Errorf("form %d: worker %d saw symbol %d, worker 0 saw %d", i, w, got[w][i], id)
			}
		}
	}
}

func fullTableRefusesNewStrings(t *testing.T) {
	kept := Intern("symtab-before-full")
	for i := 0; entries() < MaxEntries; i++ {
		Intern(fmt.Sprintf("symtab-fill-%d", i))
	}
	if id := Intern("symtab-after-full"); id != 0 {
		t.Errorf("Intern of a new string on a full table = %d, want 0", id)
	}
	if n := entries(); n != MaxEntries {
		t.Errorf("entries = %d, want the %d-entry bound", n, MaxEntries)
	}
	if id := Intern("SYMTAB-BEFORE-FULL"); id != kept || kept == 0 {
		t.Errorf("existing symbol on a full table = %d, want %d", id, kept)
	}
}
