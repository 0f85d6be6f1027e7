// Package xsd implements the XML Schema subset DogmatiX relies on. The
// paper's description-selection heuristics (Section 4) read four properties
// off the schema: the tree structure (for r-distant / k-closest selection),
// the content model (Condition 1), the data type (Condition 2), and the
// cardinality/optionality of parent-child relations (Conditions 3 and 4).
//
// The package parses XSD documents covering xs:element, inline and named
// xs:complexType (sequence/choice/all, mixed), xs:simpleType, minOccurs,
// maxOccurs, nillable and ID/key typing. It can also infer a schema from
// instance documents (Infer), which is how the experiments derive schema
// facts for generated corpora without shipping hand-written XSDs.
package xsd

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/xmltree"
)

// DataType is the coarse data type classification Condition 2 needs.
type DataType int

const (
	DTUnknown DataType = iota
	DTString
	DTDate
	DTNumeric
	DTBoolean
	DTComplex // element has no simple value at all
)

func (d DataType) String() string {
	switch d {
	case DTString:
		return "string"
	case DTDate:
		return "date"
	case DTNumeric:
		return "numeric"
	case DTBoolean:
		return "boolean"
	case DTComplex:
		return "complex"
	default:
		return "unknown"
	}
}

// ContentModel mirrors the XML Schema content models of Condition 1.
type ContentModel int

const (
	CMEmpty ContentModel = iota
	CMSimple
	CMComplex
	CMMixed
)

func (c ContentModel) String() string {
	switch c {
	case CMSimple:
		return "simple"
	case CMComplex:
		return "complex"
	case CMMixed:
		return "mixed"
	default:
		return "empty"
	}
}

// Unbounded is the MaxOccurs value for maxOccurs="unbounded".
const Unbounded = -1

// Element is one element declaration in the schema tree.
type Element struct {
	Name     string
	Path     string // absolute schema path, e.g. /moviedoc/movie/title
	Parent   *Element
	Children []*Element

	Type     DataType
	TypeName string // raw XSD type name, e.g. xs:string
	Content  ContentModel

	MinOccurs int
	MaxOccurs int // Unbounded (-1) for maxOccurs="unbounded"
	Nillable  bool
	IsKey     bool // xs:ID typed or flagged as key
}

// Depth returns the number of ancestors (the root element has depth 0).
func (e *Element) Depth() int {
	d := 0
	for p := e.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// Mandatory reports whether e is mandatory to its parent in the sense of
// Condition 3: minOccurs >= 1 and not nillable, or declared as a key/ID.
func (e *Element) Mandatory() bool {
	if e.IsKey {
		return true
	}
	return e.MinOccurs >= 1 && !e.Nillable
}

// Singleton reports whether e is in a 1:1 relation with its parent in the
// sense of Condition 4: maxOccurs == 1.
func (e *Element) Singleton() bool {
	return e.MaxOccurs == 1
}

// HasText reports whether the content model admits a text node (simple or
// mixed), which is what Condition 1 selects for.
func (e *Element) HasText() bool {
	return e.Content == CMSimple || e.Content == CMMixed
}

// Walk visits e and all declarations below it in document order.
func (e *Element) Walk(fn func(*Element) bool) {
	if !fn(e) {
		return
	}
	for _, c := range e.Children {
		c.Walk(fn)
	}
}

// FlagString renders the (type, ME, SE) triple the paper prints in
// Tables 5 and 6, e.g. "string, ME, not SE".
func (e *Element) FlagString() string {
	t := e.Type.String()
	if e.Content == CMComplex || e.Content == CMEmpty {
		t = "complex"
	}
	me := "ME"
	if !e.Mandatory() {
		me = "not ME"
	}
	se := "SE"
	if !e.Singleton() {
		se = "not SE"
	}
	return fmt.Sprintf("%s, %s, %s", t, me, se)
}

// Schema is a parsed or inferred schema with a single root element.
type Schema struct {
	Root   *Element
	byPath map[string]*Element
}

// ElementAt returns the declaration at the given absolute schema path, or
// nil if the schema does not declare it.
func (s *Schema) ElementAt(path string) *Element {
	return s.byPath[path]
}

// Elements returns all declarations in document order.
func (s *Schema) Elements() []*Element {
	var out []*Element
	s.Root.Walk(func(e *Element) bool {
		out = append(out, e)
		return true
	})
	return out
}

// index (re)builds the path lookup table and path strings.
func (s *Schema) index() {
	s.byPath = map[string]*Element{}
	var walk func(e *Element, prefix string)
	walk = func(e *Element, prefix string) {
		e.Path = prefix + "/" + e.Name
		s.byPath[e.Path] = e
		for _, c := range e.Children {
			c.Parent = e
			walk(c, e.Path)
		}
	}
	walk(s.Root, "")
}

// Parse reads an XSD document and builds the schema tree rooted at the
// first top-level element declaration.
func Parse(r io.Reader) (*Schema, error) {
	doc, err := xmltree.Parse(r)
	if err != nil {
		return nil, fmt.Errorf("xsd: %w", err)
	}
	if doc.Root.Name != "schema" {
		return nil, fmt.Errorf("xsd: root element is %q, want schema", doc.Root.Name)
	}
	p := &parser{
		namedComplex: map[string]*xmltree.Node{},
		namedSimple:  map[string]*xmltree.Node{},
	}
	var rootDecl *xmltree.Node
	for _, c := range doc.Root.Children {
		switch c.Name {
		case "element":
			if rootDecl == nil {
				rootDecl = c
			}
		case "complexType":
			if name, ok := c.Attr("name"); ok {
				p.namedComplex[name] = c
			}
		case "simpleType":
			if name, ok := c.Attr("name"); ok {
				p.namedSimple[name] = c
			}
		}
	}
	if rootDecl == nil {
		return nil, fmt.Errorf("xsd: no top-level element declaration")
	}
	root, err := p.element(rootDecl, 0)
	if err != nil {
		return nil, err
	}
	s := &Schema{Root: root}
	s.index()
	return s, nil
}

// ParseString is a convenience wrapper around Parse.
func ParseString(s string) (*Schema, error) {
	return Parse(strings.NewReader(s))
}

type parser struct {
	namedComplex map[string]*xmltree.Node
	namedSimple  map[string]*xmltree.Node
	depth        int
}

func (p *parser) element(decl *xmltree.Node, depth int) (*Element, error) {
	if depth > 64 {
		return nil, fmt.Errorf("xsd: schema nesting too deep (recursive type?)")
	}
	name, ok := decl.Attr("name")
	if !ok {
		if ref, isRef := decl.Attr("ref"); isRef {
			return nil, fmt.Errorf("xsd: element ref=%q not supported; declare inline", ref)
		}
		return nil, fmt.Errorf("xsd: element declaration without name")
	}
	e := &Element{
		Name:      name,
		MinOccurs: 1,
		MaxOccurs: 1,
		Type:      DTUnknown,
	}
	if v, ok := decl.Attr("minOccurs"); ok {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("xsd: element %s: bad minOccurs %q", name, v)
		}
		e.MinOccurs = n
	}
	if v, ok := decl.Attr("maxOccurs"); ok {
		if v == "unbounded" {
			e.MaxOccurs = Unbounded
		} else {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("xsd: element %s: bad maxOccurs %q", name, v)
			}
			e.MaxOccurs = n
		}
	}
	if v, ok := decl.Attr("nillable"); ok {
		e.Nillable = v == "true" || v == "1"
	}
	if v, ok := decl.Attr("key"); ok { // dogmatix extension shortcut
		e.IsKey = v == "true" || v == "1"
	}

	// Resolve the type: explicit type attribute, inline complexType, or
	// inline simpleType. Default (none of those) is xs:string-like simple
	// content, matching common schema authoring for leaf elements.
	if tn, ok := decl.Attr("type"); ok {
		e.TypeName = tn
		if bt, isBuiltin := builtinType(tn); isBuiltin {
			e.Type = bt
			e.Content = CMSimple
			if localName(tn) == "ID" {
				e.IsKey = true
			}
		} else if ct, found := p.namedComplex[localName(tn)]; found {
			if err := p.complexType(e, ct, depth); err != nil {
				return nil, err
			}
		} else if st, found := p.namedSimple[localName(tn)]; found {
			e.Type = simpleTypeBase(st)
			e.Content = CMSimple
		} else {
			return nil, fmt.Errorf("xsd: element %s: unknown type %q", name, tn)
		}
	} else if ct := decl.Child("complexType"); ct != nil {
		if err := p.complexType(e, ct, depth); err != nil {
			return nil, err
		}
	} else if st := decl.Child("simpleType"); st != nil {
		e.Type = simpleTypeBase(st)
		e.Content = CMSimple
	} else {
		e.Type = DTString
		e.Content = CMSimple
	}
	return e, nil
}

func (p *parser) complexType(e *Element, ct *xmltree.Node, depth int) error {
	mixed := false
	if v, ok := ct.Attr("mixed"); ok {
		mixed = v == "true" || v == "1"
	}
	var collect func(n *xmltree.Node, optional bool) error
	collect = func(n *xmltree.Node, optional bool) error {
		for _, c := range n.Children {
			switch c.Name {
			case "element":
				child, err := p.element(c, depth+1)
				if err != nil {
					return err
				}
				if optional {
					child.MinOccurs = 0
				}
				e.Children = append(e.Children, child)
			case "sequence", "all":
				if err := collect(c, optional); err != nil {
					return err
				}
			case "choice":
				// Members of a choice are individually optional.
				if err := collect(c, true); err != nil {
					return err
				}
			case "any":
				// xs:any admits arbitrary content; nothing to declare.
			}
		}
		return nil
	}
	if err := collect(ct, false); err != nil {
		return err
	}
	switch {
	case len(e.Children) == 0 && mixed:
		e.Content = CMMixed
		e.Type = DTString
	case len(e.Children) == 0:
		e.Content = CMEmpty
		e.Type = DTComplex
	case mixed:
		e.Content = CMMixed
		e.Type = DTString
	default:
		e.Content = CMComplex
		e.Type = DTComplex
	}
	return nil
}

func localName(qname string) string {
	if i := strings.LastIndexByte(qname, ':'); i >= 0 {
		return qname[i+1:]
	}
	return qname
}

func builtinType(qname string) (DataType, bool) {
	switch localName(qname) {
	case "string", "normalizedString", "token", "ID", "IDREF", "NMTOKEN", "anyURI", "Name", "NCName":
		return DTString, true
	case "date", "gYear", "gYearMonth", "dateTime", "time", "duration":
		return DTDate, true
	case "int", "integer", "long", "short", "byte", "decimal", "float", "double",
		"positiveInteger", "nonNegativeInteger", "negativeInteger", "unsignedInt", "unsignedLong":
		return DTNumeric, true
	case "boolean":
		return DTBoolean, true
	default:
		return DTUnknown, false
	}
}

func simpleTypeBase(st *xmltree.Node) DataType {
	if r := st.Child("restriction"); r != nil {
		if base, ok := r.Attr("base"); ok {
			if dt, isBuiltin := builtinType(base); isBuiltin {
				return dt
			}
		}
	}
	return DTString
}

var (
	yearRE    = regexp.MustCompile(`^\d{4}$`)
	isoDateRE = regexp.MustCompile(`^\d{4}-\d{2}-\d{2}$`)
	deDateRE  = regexp.MustCompile(`^\d{1,2}\.\d{1,2}\.\d{4}$`)
	numberRE  = regexp.MustCompile(`^-?\d+([.,]\d+)?$`)
)

// InferValueType classifies a text value the way Infer does: four-digit
// years and common date formats are DTDate, plain numbers are DTNumeric,
// everything else DTString.
func InferValueType(v string) DataType {
	switch {
	case v == "":
		return DTUnknown
	case yearRE.MatchString(v):
		n, _ := strconv.Atoi(v)
		if n >= 1000 && n <= 2999 {
			return DTDate
		}
		return DTNumeric
	case isoDateRE.MatchString(v), deDateRE.MatchString(v):
		return DTDate
	case numberRE.MatchString(v):
		return DTNumeric
	case v == "true" || v == "false":
		return DTBoolean
	default:
		return DTString
	}
}

// inferStats accumulates the per-schema-path evidence inference builds a
// schema from. One instance exists per distinct schema path.
type inferStats struct {
	elem        *Element
	hasText     bool
	hasChild    bool
	parents     int // parent instances observed
	occurrences int
	present     int // parent instances containing >=1
	maxPer      int
	posSum      float64 // sum of first-occurrence sibling indexes
	posCount    int
	values      map[string]int
	valueCount  int
	typeVotes   map[DataType]int
}

// inferFrame is one open element while evidence is collected. Text is the
// raw concatenated character data (trimmed at close, matching
// xmltree.Parse), counts/firstPos the per-child-name occurrence
// bookkeeping and childIdx the running index over all children.
type inferFrame struct {
	path     string
	text     []byte
	counts   map[string]int
	firstPos map[string]int
	childIdx int
}

// inferBuilder is the event-driven core of schema inference. Both Infer
// (fed from a materialized tree walk) and InferReader (fed from
// encoding/xml token events) drive the same builder, so the streaming
// variant is guaranteed to derive the identical schema.
type inferBuilder struct {
	byPath   map[string]*inferStats
	order    []string
	stack    []*inferFrame
	frames   []*inferFrame // one per depth reached, reused by open
	rootName string
}

func newInferBuilder() *inferBuilder {
	return &inferBuilder{byPath: map[string]*inferStats{}}
}

func (b *inferBuilder) stats(path string) *inferStats {
	st, ok := b.byPath[path]
	if !ok {
		st = &inferStats{values: map[string]int{}, typeVotes: map[DataType]int{}}
		b.byPath[path] = st
		b.order = append(b.order, path)
	}
	return st
}

// open records the start of an element. Roots of successive documents must
// share one name, mirroring the multi-document contract of Infer.
func (b *inferBuilder) open(name string) error {
	var path string
	if len(b.stack) == 0 {
		if b.rootName == "" {
			b.rootName = name
		} else if b.rootName != name {
			return fmt.Errorf("xsd: documents have different roots %q vs %q", b.rootName, name)
		}
		path = "/" + name
	} else {
		parent := b.stack[len(b.stack)-1]
		if _, seen := parent.counts[name]; !seen {
			parent.firstPos[name] = parent.childIdx
		}
		parent.counts[name]++
		parent.childIdx++
		path = parent.path + "/" + name
	}
	b.stats(path).occurrences++
	depth := len(b.stack)
	if depth == len(b.frames) {
		b.frames = append(b.frames, &inferFrame{counts: map[string]int{}, firstPos: map[string]int{}})
	}
	f := b.frames[depth]
	f.path, f.text, f.childIdx = path, f.text[:0], 0
	clear(f.counts)
	clear(f.firstPos)
	b.stack = append(b.stack, f)
	return nil
}

// text appends raw character data to the open element.
func (b *inferBuilder) text(s string) {
	if len(b.stack) > 0 {
		f := b.stack[len(b.stack)-1]
		f.text = append(f.text, s...)
	}
}

// close records the end of the open element, folding its text and
// per-child-name occurrence evidence into the path stats. The frame
// stays in b.frames for the next element opened at its depth.
func (b *inferBuilder) close() {
	f := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	st := b.byPath[f.path]
	if raw := bytes.TrimSpace(f.text); len(raw) > 0 {
		txt := string(raw)
		st.hasText = true
		st.values[txt]++
		st.valueCount++
		st.typeVotes[InferValueType(txt)]++
	}
	if f.childIdx > 0 {
		st.hasChild = true
	}
	for name, cnt := range f.counts {
		cst := b.byPath[f.path+"/"+name]
		cst.present++
		if cnt > cst.maxPer {
			cst.maxPer = cnt
		}
		cst.posSum += float64(f.firstPos[name])
		cst.posCount++
	}
}

// walkDoc feeds one materialized document through the event interface.
func (b *inferBuilder) walkDoc(d *xmltree.Document) error {
	var walk func(n *xmltree.Node) error
	walk = func(n *xmltree.Node) error {
		if err := b.open(n.Name); err != nil {
			return err
		}
		b.text(n.Text)
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		b.close()
		return nil
	}
	return walk(d.Root)
}

// Infer derives a schema from instance documents. All documents must share
// the same root element name. Inferred facts: the element tree, per-element
// minOccurs (0 if any parent instance lacks the child), maxOccurs (>1 or
// Unbounded if any parent holds several), content model (from observed text
// and children), and the data type (from observed values; mixed evidence
// degrades to string). Elements named "*id" or "*did" whose values are
// unique across instances are flagged as keys, mirroring the ID/key clause
// of Condition 3.
func Infer(docs ...*xmltree.Document) (*Schema, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("xsd: Infer needs at least one document")
	}
	b := newInferBuilder()
	for _, d := range docs {
		if err := b.walkDoc(d); err != nil {
			return nil, err
		}
	}
	return b.build()
}

// InferReader is the single-pass streaming variant of Infer: it derives
// the schema of one document directly from encoding/xml token events,
// never materializing the tree, so inference memory is bounded by element
// depth plus the distinct-path/value statistics — not document size. It
// accepts exactly the token streams xmltree.Parse accepts (comments,
// processing instructions and directives are skipped; CDATA merges into
// character data) and derives the same schema Infer derives from the
// parsed tree.
func InferReader(r io.Reader) (*Schema, error) {
	b := newInferBuilder()
	dec := xml.NewDecoder(r)
	sawRoot := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xsd: infer: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(b.stack) == 0 {
				if sawRoot {
					return nil, fmt.Errorf("xsd: infer: multiple root elements")
				}
				sawRoot = true
			}
			if err := b.open(t.Name.Local); err != nil {
				return nil, err
			}
		case xml.EndElement:
			if len(b.stack) == 0 {
				return nil, fmt.Errorf("xsd: infer: unbalanced end element %s", t.Name.Local)
			}
			b.close()
		case xml.CharData:
			b.text(string(t))
		}
	}
	if !sawRoot {
		return nil, fmt.Errorf("xsd: infer: empty document")
	}
	if len(b.stack) != 0 {
		return nil, fmt.Errorf("xsd: infer: unclosed element")
	}
	return b.build()
}

// build turns the accumulated evidence into a Schema.
func (b *inferBuilder) build() (*Schema, error) {
	byPath, order := b.byPath, b.order

	// Fix parent totals: the number of instances of the parent path.
	for path, st := range byPath {
		idx := strings.LastIndexByte(path, '/')
		if idx <= 0 {
			continue
		}
		parentPath := path[:idx]
		if pst, ok := byPath[parentPath]; ok {
			st.parents = pst.occurrences
		}
	}

	// Build elements.
	for _, path := range order {
		st := byPath[path]
		name := path[strings.LastIndexByte(path, '/')+1:]
		e := &Element{Name: name, MinOccurs: 1, MaxOccurs: 1}
		if st.parents > st.present {
			e.MinOccurs = 0
		}
		if st.maxPer > 1 {
			e.MaxOccurs = Unbounded
		}
		switch {
		case st.hasText && st.hasChild:
			e.Content = CMMixed
		case st.hasChild:
			e.Content = CMComplex
			e.Type = DTComplex
		case st.hasText:
			e.Content = CMSimple
		default:
			// No text observed anywhere: could be empty or optional simple.
			e.Content = CMSimple
		}
		if e.Content != CMComplex {
			e.Type = dominantType(st.typeVotes)
		}
		lower := strings.ToLower(name)
		if (strings.HasSuffix(lower, "id") || lower == "key") &&
			st.valueCount > 1 && len(st.values) == st.valueCount {
			e.IsKey = true
		}
		st.elem = e
	}

	// Link the tree, ordering each element's children by their average
	// first-occurrence position among siblings so optional elements land
	// where instances place them (e.g. cdextra before tracks even when
	// the first disc lacks a cdextra).
	var root *Element
	avgPos := func(path string) float64 {
		st := byPath[path]
		if st.posCount == 0 {
			return 0
		}
		return st.posSum / float64(st.posCount)
	}
	childPaths := map[string][]string{}
	for _, path := range order {
		st := byPath[path]
		idx := strings.LastIndexByte(path, '/')
		if idx == 0 {
			root = st.elem
			continue
		}
		childPaths[path[:idx]] = append(childPaths[path[:idx]], path)
	}
	for parentPath, kids := range childPaths {
		sort.SliceStable(kids, func(i, j int) bool {
			return avgPos(kids[i]) < avgPos(kids[j])
		})
		parent := byPath[parentPath]
		for _, kid := range kids {
			parent.elem.Children = append(parent.elem.Children, byPath[kid].elem)
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xsd: inference found no root")
	}
	s := &Schema{Root: root}
	s.index()
	return s, nil
}

func dominantType(votes map[DataType]int) DataType {
	if len(votes) == 0 {
		return DTString
	}
	// Unanimous non-string verdicts win; any disagreement means string.
	var only DataType
	kinds := 0
	for dt, n := range votes {
		if n == 0 {
			continue
		}
		kinds++
		only = dt
	}
	if kinds == 1 {
		return only
	}
	return DTString
}
