// Command docscheck is the repository's documentation gate, run by
// `make docs-check` and the CI docs job. It enforces three invariants:
//
//  1. Every Go package under the repository has a package-level doc
//     comment ("// Package ..." or "// Command ...") on at least one of
//     its non-test files — the front-door contract that each package
//     states its role in the Step 1–7 pipeline.
//  2. Every relative markdown link in the files passed as arguments
//     resolves to an existing file, so README/ARCHITECTURE/ROADMAP
//     cross-references cannot rot silently.
//  3. Every *.md file that a comment in the main module's Go files
//     names exists, relative to the root or to the Go file's directory;
//     nested modules (their own go.mod, e.g. bench/) are skipped.
//
// Usage:
//
//	docscheck [-root DIR] [markdown files...]
//
// Exits non-zero listing every violation.
package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root to scan for Go packages")
	flag.Parse()

	var problems []string
	problems = append(problems, checkPackageDocs(*root)...)
	problems = append(problems, checkCommentCitations(*root)...)
	for _, md := range flag.Args() {
		problems = append(problems, checkMarkdownLinks(md)...)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "docscheck:", p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}

// checkPackageDocs walks every directory containing Go files and
// requires a package doc comment on some non-test file.
func checkPackageDocs(root string) []string {
	perDir := map[string][]string{}
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if skipDir(root, path, d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			perDir[dir] = append(perDir[dir], path)
		}
		return nil
	})

	var problems []string
	fset := token.NewFileSet()
	for dir, files := range perDir {
		documented := false
		for _, f := range files {
			af, err := parser.ParseFile(fset, f, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", f, err))
				continue
			}
			if af.Doc != nil && len(strings.TrimSpace(af.Doc.Text())) > 0 {
				documented = true
				break
			}
		}
		if !documented {
			problems = append(problems, fmt.Sprintf("%s: package has no doc comment on any file", dir))
		}
	}
	return problems
}

// skipDir skips version control, test fixtures and hidden directories.
func skipDir(root, path, name string) bool {
	return name == ".git" || name == "testdata" || (strings.HasPrefix(name, ".") && path != root)
}

// mdName matches a cited markdown file: ROADMAP.md, bench/README.md.
var mdName = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// checkCommentCitations enforces invariant 3, over test files too.
func checkCommentCitations(root string) []string {
	var problems []string
	fset := token.NewFileSet()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
		case d.IsDir() && (skipDir(root, path, d.Name()) || path != root && exists(filepath.Join(path, "go.mod"))):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go"):
			af, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", path, err))
				return nil
			}
			for _, cg := range af.Comments {
				for _, c := range cg.List {
					for _, name := range mdName.FindAllString(c.Text, -1) {
						if !exists(filepath.Join(root, name)) && !exists(filepath.Join(filepath.Dir(path), name)) {
							problems = append(problems, fmt.Sprintf("%s: comment cites %s, which does not exist", fset.Position(c.Pos()), name))
						}
					}
				}
			}
		}
		return nil
	})
	return problems
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// mdLink matches inline markdown links/images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)[^)]*\)`)

// checkMarkdownLinks verifies that every relative link target in one
// markdown file exists on disk. External schemes and pure anchors are
// skipped; a `path#anchor` target is checked for the path part.
func checkMarkdownLinks(path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	var problems []string
	dir := filepath.Dir(path)
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if idx := strings.IndexByte(target, '#'); idx >= 0 {
				target = target[:idx]
			}
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, target)); err != nil {
				problems = append(problems, fmt.Sprintf("%s:%d: link target %q does not exist", path, i+1, m[1]))
			}
		}
	}
	return problems
}
