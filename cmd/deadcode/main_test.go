package main

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// fixture parses testdata/: a dump in go build's -dumpdep form and the
// three packages it was written for, with one case of each trap.
func fixture(t *testing.T) ([]decl, map[string]map[string]bool) {
	t.Helper()
	pkgs := []pkg{
		{ImportPath: "example.com/fix/lib", Dir: "testdata/src/lib", Name: "lib", GoFiles: []string{"lib.go"}},
		{ImportPath: "example.com/fix/cmd/a", Dir: "testdata/src/cmd/a", Name: "main", GoFiles: []string{"main.go"}},
		{ImportPath: "example.com/fix/cmd/b", Dir: "testdata/src/cmd/b", Name: "main", GoFiles: []string{"main.go"}},
	}
	decls, err := declarations(pkgs, "example.com/fix")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open("testdata/dump.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return decls, parseDumps(f)
}

// TestCheckReportsOnlyThePlantedDeadFunction: a generic instantiation,
// a closure and a method value reach their declarations; a package
// main symbol counts only in its own program's dump; a name that only
// per-function data carries (.arginfo1, .stkobj, .argliveinfo) reaches
// nothing, so the allowlisted Kept stays listed rather than stale.
func TestCheckReportsOnlyThePlantedDeadFunction(t *testing.T) {
	decls, dumps := fixture(t)
	got := check(decls, dumps, map[string]string{"lib.Kept": "reference"})
	want := []string{"cmd/b/main.go:7: cmd/b.helper is reached by no program"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestCheckFailsStaleAllowlist: an allowlisted symbol that is reached,
// or that no longer exists, is a problem of its own.
func TestCheckFailsStaleAllowlist(t *testing.T) {
	decls, dumps := fixture(t)
	allow := map[string]string{"lib.Kept": "r", "cmd/b.helper": "r", "lib.(*cache).get": "r", "lib.Gone": "r"}
	got := check(decls, dumps, allow)
	want := []string{
		"stale allowlist entry lib.(*cache).get: it is reached",
		"stale allowlist entry lib.Gone: no such function",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestParseAllow(t *testing.T) {
	got, err := parseAllow("# comment\n\ninternal/x.F  reference: kept for tests\n")
	if err != nil || !reflect.DeepEqual(got, map[string]string{"internal/x.F": "reference: kept for tests"}) {
		t.Errorf("parseAllow = %v, %v", got, err)
	}
	for _, bad := range []string{"internal/x.F\n", "internal/x.F  r\ninternal/x.F  r\n"} {
		if _, err := parseAllow(bad); err == nil {
			t.Errorf("parseAllow(%q) accepted", bad)
		}
	}
}
