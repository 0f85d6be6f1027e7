// Command deadcode is the repository's reachability gate (`make
// deadcode`, CI's test job): it fails when a non-test function or method
// of the main module is reached by no program.
//
// It builds every main package of the module and the bench module with
// -ldflags=-dumpdep, inlining off for the module's packages so that small
// callees are not folded away, and parses the module's non-test Go files
// as `go list` selects them for this platform. A declaration no dump
// names is reported unless allow.txt lists it (`symbol  reason`, the
// symbol as reported, # comments); an allowlist line whose symbol is
// reached or not declared is reported as stale.
//
// The linker keeps every method an interface call might reach, so the
// gate may miss dead code but never flags live code. Package main
// symbols are all named main.X, so they are looked up only in their own
// program's dump. Run it from the repository root.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const allowPath = "cmd/deadcode/allow.txt"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(1)
	}
}

func run() error {
	pkgs, modPath, err := listPackages()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "deadcode")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	gcflags := "-gcflags=" + modPath + "/...=-l"
	var dump bytes.Buffer
	for _, dir := range []string{".", "bench"} {
		out := filepath.Join(tmp, dir) + string(filepath.Separator)
		cmd := exec.Command("go", "build", "-C", dir, gcflags, "-ldflags=-dumpdep", "-o", out, "./...")
		cmd.Stderr = &dump
		if err := cmd.Run(); err != nil {
			b := dump.Bytes() // its errors follow the dump lines
			return fmt.Errorf("go build -C %s: %v\n%s", dir, err, b[max(0, len(b)-4096):])
		}
	}
	text, err := os.ReadFile(allowPath)
	if err != nil {
		return err
	}
	allow, err := parseAllow(string(text))
	if err != nil {
		return fmt.Errorf("%s: %v", allowPath, err)
	}
	decls, err := declarations(pkgs, modPath)
	if err != nil {
		return err
	}
	problems := check(decls, parseDumps(&dump), allow)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "deadcode:", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problem(s); delete the code, or list it in %s with a reason", len(problems), allowPath)
	}
	return nil
}

// pkg is one package of the main module as `go list` reports it.
type pkg struct {
	ImportPath, Dir, Name string
	GoFiles               []string
	Module                struct{ Path string }
}

func listPackages() ([]pkg, string, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, "", fmt.Errorf("go list: %v", err)
	}
	var pkgs []pkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p pkg
		if err := dec.Decode(&p); err != nil {
			return nil, "", err
		}
		pkgs = append(pkgs, p)
	}
	if len(pkgs) == 0 {
		return nil, "", fmt.Errorf("go list: no packages")
	}
	return pkgs, pkgs[0].Module.Path, nil
}

// decl is one function or method declaration with a body.
type decl struct {
	name string   // as printed and allowlisted: internal/od.(*DiskStore).Dir
	syms []string // the linker names that count as reaching it
	prog string   // the dump searched: its program for package main, else ""
	pos  string
}

func declarations(pkgs []pkg, modPath string) ([]decl, error) {
	fset := token.NewFileSet()
	var decls []decl
	for _, p := range pkgs {
		rel := strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, modPath), "/")
		symPkg, prog := p.ImportPath, ""
		if p.Name == "main" {
			symPkg, prog = "main", p.ImportPath
		}
		for _, name := range p.GoFiles {
			file := filepath.Join(p.Dir, name)
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || (fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "_")) {
					continue
				}
				// The linker's name inside the package: F, T.M or
				// (*T).M, type parameters dropped.
				local, syms := fd.Name.Name, []string(nil)
				if fd.Recv != nil {
					recv := genericArgs.ReplaceAllString(types.ExprString(fd.Recv.List[0].Type), "")
					if r, ok := strings.CutPrefix(recv, "*"); ok {
						local = "(*" + r + ")." + local
					} else {
						// A value method is also reached through its pointer wrapper.
						syms = append(syms, symPkg+".(*"+recv+")."+local)
						local = recv + "." + local
					}
				}
				pos := fset.Position(fd.Pos())
				decls = append(decls, decl{
					name: rel + "." + local,
					syms: append(syms, symPkg+"."+local),
					prog: prog,
					pos:  fmt.Sprintf("%s:%d", filepath.ToSlash(filepath.Join(rel, name)), pos.Line),
				})
			}
		}
	}
	return decls, nil
}

// parseDumps reads go build's stderr under -ldflags=-dumpdep: one
// "# importpath" header per linked program, then "from -> to" lines.
// It returns the canonical symbols each program's dump names, and under
// "" those any dump names.
func parseDumps(r io.Reader) map[string]map[string]bool {
	all := map[string]bool{}
	dumps := map[string]map[string]bool{"": all}
	var cur map[string]bool
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if prog, ok := strings.CutPrefix(line, "# "); ok {
			cur = map[string]bool{}
			dumps[prog] = cur
			continue
		}
		from, to, ok := strings.Cut(line, " -> ")
		if !ok || cur == nil {
			continue
		}
		for _, sym := range []string{canonical(from), canonical(to)} {
			cur[sym], all[sym] = true, true
		}
	}
	return dumps
}

// genericArgs matches one innermost type argument list of a generic
// instantiation: od.(*shardedLRU[go.shape.string,...]).get is
// od.(*shardedLRU).get.
var genericArgs = regexp.MustCompile(`\[[^\[\]]*\]`)

// symSuffix matches what follows a function's name in the symbols of
// code that belongs to it: closures (.func1, .func1.2, .gowrap1,
// .deferwrap1), method values (-fm) and the attributes -dumpdep prints
// (<UsedInIface>). Per-function data (.stkobj, .arginfo1,
// .argliveinfo, .opendefer) does not count: the linker deduplicates
// identical data symbols under the name of whichever function it met
// first (path/filepath.walk -> core.ReaderSource.arginfo1), so such a
// name proves nothing about the function it carries.
var symSuffix = regexp.MustCompile(`(\.(func|gowrap|deferwrap)\d+|\.\d+|-fm| <[A-Za-z]+>)+$`)

// canonical maps a dump symbol to the declaration it belongs to.
func canonical(sym string) string {
	for strings.IndexByte(sym, '[') >= 0 {
		stripped := genericArgs.ReplaceAllString(sym, "")
		if stripped == sym {
			break
		}
		sym = stripped
	}
	return symSuffix.ReplaceAllString(sym, "")
}

// parseAllow reads `symbol  reason` lines into symbol → reason.
func parseAllow(text string) (map[string]string, error) {
	allow := map[string]string{}
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("line %d: %s has no reason", n+1, sym)
		}
		if _, dup := allow[sym]; dup {
			return nil, fmt.Errorf("line %d: %s listed twice", n+1, sym)
		}
		allow[sym] = strings.TrimSpace(reason)
	}
	return allow, nil
}

// check lists every unreached declaration the allowlist does not name,
// and every allowlist symbol that is reached or not declared.
func check(decls []decl, dumps map[string]map[string]bool, allow map[string]string) []string {
	var problems []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
		reached := false
		for _, s := range d.syms {
			reached = reached || dumps[d.prog][s]
		}
		_, listed := allow[d.name]
		switch {
		case reached && listed:
			problems = append(problems, fmt.Sprintf("stale allowlist entry %s: it is reached", d.name))
		case !reached && !listed:
			problems = append(problems, fmt.Sprintf("%s: %s is reached by no program", d.pos, d.name))
		}
	}
	for sym := range allow {
		if !declared[sym] {
			problems = append(problems, fmt.Sprintf("stale allowlist entry %s: no such function", sym))
		}
	}
	sort.Strings(problems)
	return problems
}
