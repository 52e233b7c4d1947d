package saql

// Documentation conformance: every ```saql fenced block in the docs must be
// a complete query that validates and compiles, so the language reference
// cannot drift from the implementation.

import (
	"os"
	"testing"

	"saql/internal/conformance"
	"saql/internal/parser"
)

// fencedBlocks extracts the ```<lang> fenced code blocks from markdown.
func fencedBlocks(t *testing.T, path, lang string) []string {
	t.Helper()
	blocks, err := conformance.FencedBlocks(path, lang)
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

// saqlBlocks extracts the ```saql fenced code blocks from markdown.
func saqlBlocks(t *testing.T, path string) []string {
	t.Helper()
	return fencedBlocks(t, path, "saql")
}

func TestLanguageDocSnippetsValidate(t *testing.T) {
	blocks := saqlBlocks(t, "docs/language.md")
	if len(blocks) < 15 {
		t.Fatalf("docs/language.md has %d saql blocks; the reference should cover the language (>= 15)", len(blocks))
	}
	for i, src := range blocks {
		if err := Validate(src); err != nil {
			t.Errorf("docs/language.md block %d does not validate: %v\n%s", i+1, err, src)
			continue
		}
		if _, err := CompileQuery("doc-snippet", src); err != nil {
			t.Errorf("docs/language.md block %d does not compile: %v\n%s", i+1, err, src)
		}
	}
}

// TestQueriesDocSnippetsValidate pins docs/queries.md: plain ```saql
// blocks must validate and compile; queryset documents must parse through
// ParseQuerySet (params substituted, every query checked).
func TestQueriesDocSnippetsValidate(t *testing.T) {
	blocks := saqlBlocks(t, "docs/queries.md")
	if len(blocks) < 1 {
		t.Fatal("docs/queries.md has no saql blocks; the queryset grammar must be demonstrated")
	}
	sets := 0
	for i, src := range blocks {
		if parser.LooksLikeQuerySet(src) {
			sets++
			if _, err := ParseQuerySet(src); err != nil {
				t.Errorf("docs/queries.md block %d is not a valid queryset: %v\n%s", i+1, err, src)
			}
			continue
		}
		if err := Validate(src); err != nil {
			t.Errorf("docs/queries.md block %d does not validate: %v\n%s", i+1, err, src)
			continue
		}
		if _, err := CompileQuery("doc-snippet", src); err != nil {
			t.Errorf("docs/queries.md block %d does not compile: %v\n%s", i+1, err, src)
		}
	}
	if sets == 0 {
		t.Error("docs/queries.md demonstrates no queryset document")
	}
}

func TestDocsExist(t *testing.T) {
	for _, path := range []string{"README.md", "docs/language.md", "docs/architecture.md", "docs/queries.md", "docs/admin.md"} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("%s missing: %v", path, err)
		}
		if st.Size() < 1024 {
			t.Errorf("%s is suspiciously small (%d bytes)", path, st.Size())
		}
	}
}
