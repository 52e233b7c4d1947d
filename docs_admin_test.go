package saql_test

// Documentation conformance for docs/admin.md. Lives in the external test
// package because internal/admin imports saql, so the in-package docs test
// cannot import it without a cycle.

import (
	"os"
	"strings"
	"testing"

	"saql"
	"saql/internal/admin"
	"saql/internal/parser"
)

// adminDocBlocks extracts the ```<lang> fenced code blocks from
// docs/admin.md.
func adminDocBlocks(t *testing.T, lang string) []string {
	t.Helper()
	data, err := os.ReadFile("docs/admin.md")
	if err != nil {
		t.Fatal(err)
	}
	var blocks []string
	var cur []string
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case !in && strings.TrimSpace(line) == "```"+lang:
			in = true
			cur = cur[:0]
		case in && strings.TrimSpace(line) == "```":
			in = false
			blocks = append(blocks, strings.Join(cur, "\n"))
		case in:
			cur = append(cur, line)
		}
	}
	if in {
		t.Fatalf("docs/admin.md: unterminated ```%s block", lang)
	}
	return blocks
}

// TestAdminDocSnippetsValidate pins docs/admin.md: every line of every
// ```saql-admin block must parse through the admin DSL parser, and the
// tenant queryset example must parse through ParseQuerySet — so the admin
// reference cannot drift from the implementation.
func TestAdminDocSnippetsValidate(t *testing.T) {
	calls := 0
	for i, block := range adminDocBlocks(t, "saql-admin") {
		for _, line := range strings.Split(block, "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			calls++
			if _, err := admin.Parse(line); err != nil {
				t.Errorf("docs/admin.md saql-admin block %d: %q does not parse: %v", i+1, line, err)
			}
		}
	}
	if calls < 8 {
		t.Errorf("docs/admin.md demonstrates %d admin DSL calls; the reference should cover the verbs (>= 8)", calls)
	}

	sets := 0
	for i, src := range adminDocBlocks(t, "saql") {
		if !parser.LooksLikeQuerySet(src) {
			t.Errorf("docs/admin.md saql block %d is not a queryset document", i+1)
			continue
		}
		sets++
		if _, err := saql.ParseQuerySet(src); err != nil {
			t.Errorf("docs/admin.md saql block %d is not a valid queryset: %v\n%s", i+1, err, src)
			continue
		}
		if doc, err := parser.ParseQuerySetDoc(src); err != nil || len(doc.Tenants) == 0 {
			t.Errorf("docs/admin.md saql block %d declares no tenant quotas", i+1)
		}
	}
	if sets == 0 {
		t.Error("docs/admin.md demonstrates no tenant queryset document")
	}
}
