package core

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Mapping is the paper's mapping M associating schema elements (by their
// absolute schema XPath) with real-world types (Section 2.1). Two OD
// tuples are comparable iff M assigns their paths the same type; paths
// absent from M implicitly form their own type, so single-schema data
// needs no mapping beyond the candidate type.
type Mapping struct {
	typeOf    map[string]string   // schema xpath -> type name
	pathsOf   map[string][]string // type name -> xpaths, insertion order
	types     []string            // type names, insertion order
	composite map[string]bool     // xpaths whose OD value is assembled from descendants
}

// NewMapping returns an empty mapping.
func NewMapping() *Mapping {
	return &Mapping{
		typeOf:    map[string]string{},
		pathsOf:   map[string][]string{},
		composite: map[string]bool{},
	}
}

// MarkComposite flags schema paths as composite: when OD generation
// encounters such an element without a text node of its own, the tuple
// value is the space-joined text of its descendants. This models
// description items like the paper's "firstname + lastname" in Table 6,
// where a complex element stands for one logical value split across
// children. Paths must already be mapped.
func (m *Mapping) MarkComposite(xpaths ...string) error {
	for _, p := range xpaths {
		p = normalizePath(p)
		if _, ok := m.typeOf[p]; !ok {
			return fmt.Errorf("core: mapping: cannot mark unmapped path %s composite", p)
		}
		m.composite[p] = true
	}
	return nil
}

// MustMarkComposite is MarkComposite that panics on error.
func (m *Mapping) MustMarkComposite(xpaths ...string) *Mapping {
	if err := m.MarkComposite(xpaths...); err != nil {
		panic(err)
	}
	return m
}

// IsComposite reports whether the schema path was marked composite.
func (m *Mapping) IsComposite(xpath string) bool {
	return m.composite[normalizePath(xpath)]
}

// Add associates xpaths with the real-world type. The "$doc" prefix of the
// paper's notation is stripped. Adding a path twice under different types
// is an error.
func (m *Mapping) Add(typeName string, xpaths ...string) error {
	if typeName == "" {
		return fmt.Errorf("core: mapping: empty type name")
	}
	if _, ok := m.pathsOf[typeName]; !ok {
		m.types = append(m.types, typeName)
	}
	for _, p := range xpaths {
		p = normalizePath(p)
		if p == "" || !strings.HasPrefix(p, "/") {
			return fmt.Errorf("core: mapping: %q is not an absolute schema path", p)
		}
		if prev, ok := m.typeOf[p]; ok && prev != typeName {
			return fmt.Errorf("core: mapping: path %s already mapped to %s", p, prev)
		}
		if m.typeOf[p] != typeName {
			m.typeOf[p] = typeName
			m.pathsOf[typeName] = append(m.pathsOf[typeName], p)
		}
	}
	return nil
}

// MustAdd is Add for statically known mappings; it panics on error.
func (m *Mapping) MustAdd(typeName string, xpaths ...string) *Mapping {
	if err := m.Add(typeName, xpaths...); err != nil {
		panic(err)
	}
	return m
}

// TypeOf returns the real-world type of a schema path; unmapped paths are
// their own implicit type.
func (m *Mapping) TypeOf(xpath string) string {
	if t, ok := m.typeOf[normalizePath(xpath)]; ok {
		return t
	}
	return xpath
}

// Paths returns the schema paths of a type, or nil.
func (m *Mapping) Paths(typeName string) []string {
	return m.pathsOf[typeName]
}

// Types returns all declared type names in insertion order.
func (m *Mapping) Types() []string {
	return append([]string(nil), m.types...)
}

func normalizePath(p string) string {
	p = strings.TrimSpace(p)
	p = strings.TrimPrefix(p, "$doc")
	return p
}

// ParseMapping reads the textual mapping format:
//
//	# comment
//	MOVIE   $doc/moviedoc/movie
//	TITLE   $doc/moviedoc/movie/title $doc/filmdoc/film/name
//
// Each non-comment line is a type name followed by one or more
// whitespace-separated schema XPaths.
func ParseMapping(r io.Reader) (*Mapping, error) {
	m := NewMapping()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("core: mapping line %d: want TYPE PATH..., got %q", lineNo, line)
		}
		if err := m.Add(fields[0], fields[1:]...); err != nil {
			return nil, fmt.Errorf("core: mapping line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: mapping: %w", err)
	}
	return m, nil
}
