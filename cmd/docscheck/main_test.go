package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommentCitations plants one dangling citation among ones that
// resolve (root-relative, file-relative), one in a string literal, and
// ones in a nested module and a testdata directory, which are skipped.
func TestCommentCitations(t *testing.T) {
	root := t.TempDir()
	for path, body := range map[string]string{
		"go.mod":     "module x\n",
		"ROADMAP.md": "",
		"a/NOTES.md": "",
		"a/a.go": `// Package a follows ROADMAP.md and NOTES.md.
package a

// See MISSING.md.
var s = "LITERAL.md"
`,
		"nested/go.mod":      "module y\n",
		"nested/n.go":        "// Package n cites GONE.md.\npackage n\n",
		"a/testdata/t.go":    "// Package t cites GONE.md.\npackage t\n",
		"a/a_test.go":        "package a\n\n// Cites ALSO_MISSING.md.\n",
		"docs/guide/doc.go":  "// Package guide cites a/NOTES.md from the root.\npackage guide\n",
		"docs/guide/more.go": "package guide\n",
	} {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	problems := checkCommentCitations(root)
	if len(problems) != 2 {
		t.Fatalf("problems = %q, want the two dangling citations", problems)
	}
	for i, want := range []string{"a.go:4:1: comment cites MISSING.md", "a_test.go:3:1: comment cites ALSO_MISSING.md"} {
		if !strings.Contains(problems[i], want) {
			t.Errorf("problem %d = %q, want it to contain %q", i, problems[i], want)
		}
	}
}
