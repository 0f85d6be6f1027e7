// Package xmltree provides a lightweight in-memory XML document model used
// by every other DogmatiX subsystem. It supports parsing from any io.Reader
// via encoding/xml, navigation along the axes the paper's heuristics need
// (children, descendants, parents and the root), absolute
// and schema-level paths, and serialization back to XML.
//
// The model deliberately keeps only what duplicate detection needs: element
// nodes with attributes and a text value. Comments, processing instructions
// and CDATA boundaries are dropped; character data is concatenated and
// whitespace-trimmed into Node.Text.
package xmltree

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Node is a single XML element. Text holds the concatenated, trimmed
// character data directly inside the element (not including descendants).
type Node struct {
	Name     string
	Attrs    []Attr
	Text     string
	Parent   *Node
	Children []*Node

	// pos is the 1-based index among same-named siblings and shared
	// whether any such sibling exists. AppendChild and RemoveChild keep
	// both current, so Path renders a step without scanning siblings.
	// An int32 keeps the pair in the word an int pos took alone.
	pos    int32
	shared bool
}

// Attr is a single XML attribute.
type Attr struct {
	Name  string
	Value string
}

// Document is a parsed XML document with a single root element.
type Document struct {
	Root *Node
}

// FromStartElement builds a detached Node from an encoding/xml start
// token, applying the model's attribute policy: namespace declarations
// (xmlns and xmlns:*) are dropped, all other attributes keep their local
// name. Parse and the streaming scanner (internal/xmlstream) share this
// conversion so both produce identical nodes for the same token stream.
func FromStartElement(t xml.StartElement) *Node {
	n := &Node{Name: t.Name.Local}
	for _, a := range t.Attr {
		if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
			continue
		}
		n.Attrs = append(n.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
	}
	return n
}

// Parse reads an XML document from r and builds its tree.
func Parse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	// texts[i] collects the raw character data of stack[i]. The buffers
	// are reused by depth, so a parent's inter-element whitespace grows
	// one buffer instead of re-concatenating Text at every child.
	var texts [][]byte
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := FromStartElement(t)
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: parse: multiple root elements")
				}
				root = n
			} else {
				stack[len(stack)-1].AppendChild(n)
			}
			stack = append(stack, n)
			if len(texts) < len(stack) {
				texts = append(texts, nil)
			}
			texts[len(stack)-1] = texts[len(stack)-1][:0]
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end element %s", t.Name.Local)
			}
			top := len(stack) - 1
			stack[top].Text = string(bytes.TrimSpace(texts[top]))
			stack = stack[:top]
		case xml.CharData:
			if len(stack) > 0 {
				texts[len(stack)-1] = append(texts[len(stack)-1], t...)
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: parse: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: parse: unclosed element %s", stack[len(stack)-1].Name)
	}
	return &Document{Root: root}, nil
}

// ParseString is a convenience wrapper around Parse.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// NewNode builds a detached element node.
func NewNode(name string) *Node {
	return &Node{Name: name}
}

// NewTextNode builds a detached element node with text content.
func NewTextNode(name, text string) *Node {
	return &Node{Name: name, Text: text}
}

// AppendChild attaches child as the last child of n and maintains the
// positional index used by Path. The position follows from the nearest
// preceding namesake, so a run of same-named children appends in O(1).
func (n *Node) AppendChild(child *Node) *Node {
	child.Parent = n
	child.pos, child.shared = 1, false
	for i := len(n.Children) - 1; i >= 0; i-- {
		if c := n.Children[i]; c.Name == child.Name {
			child.pos = c.pos + 1
			child.shared, c.shared = true, true
			break
		}
	}
	n.Children = append(n.Children, child)
	return child
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Child returns the first direct child with the given name, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ChildrenNamed returns all direct children with the given name.
func (n *Node) ChildrenNamed(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// Root returns the topmost ancestor of n.
func (n *Node) Root() *Node {
	r := n
	for r.Parent != nil {
		r = r.Parent
	}
	return r
}

// Descendants returns all descendants of n in document (pre-)order.
func (n *Node) Descendants() []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(m *Node) {
		for _, c := range m.Children {
			out = append(out, c)
			walk(c)
		}
	}
	walk(n)
	return out
}

// Walk calls fn for n and every descendant in document order. If fn returns
// false the subtree below the node is skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Path returns the absolute, positionally qualified XPath of n, e.g.
// /moviedoc/movie[2]/actor[1]/name. Position predicates are included only
// for elements with same-named siblings. It costs O(depth).
func (n *Node) Path() string {
	return n.path(true)
}

// SchemaPath returns the absolute path of n without positional predicates,
// e.g. /moviedoc/movie/actor/name. This is the "name" component of OD
// tuples and the key used to look up real-world types in mapping M.
func (n *Node) SchemaPath() string {
	return n.path(false)
}

// path renders the steps from the root down to n into one exactly sized
// allocation.
func (n *Node) path(positional bool) string {
	var buf [16]*Node
	steps := buf[:0]
	size := 0
	for m := n; m != nil; m = m.Parent {
		steps = append(steps, m)
		size += 1 + len(m.Name)
		if positional && m.predicated() {
			size += 2 + decimalLen(int(m.pos))
		}
	}
	var sb strings.Builder
	sb.Grow(size)
	var num [20]byte
	for i := len(steps) - 1; i >= 0; i-- {
		m := steps[i]
		sb.WriteByte('/')
		sb.WriteString(m.Name)
		if positional && m.predicated() {
			sb.WriteByte('[')
			sb.Write(strconv.AppendInt(num[:0], int64(m.pos), 10))
			sb.WriteByte(']')
		}
	}
	return sb.String()
}

// predicated reports whether n's step in Path carries a position.
func (n *Node) predicated() bool {
	return n.Parent != nil && n.shared
}

func decimalLen(v int) int {
	l := 1
	for ; v >= 10; v /= 10 {
		l++
	}
	return l
}

// Clone deep-copies the subtree rooted at n. The clone is detached.
func (n *Node) Clone() *Node {
	cp := &Node{Name: n.Name, Text: n.Text, pos: n.pos, shared: n.shared}
	cp.Attrs = append([]Attr(nil), n.Attrs...)
	for _, c := range n.Children {
		cc := c.Clone()
		cc.Parent = cp
		cp.Children = append(cp.Children, cc)
	}
	return cp
}

// RemoveChild detaches child from n and renumbers sibling positions.
// It reports whether the child was found.
func (n *Node) RemoveChild(child *Node) bool {
	for i, c := range n.Children {
		if c == child {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			child.Parent = nil
			n.renumber(child.Name)
			return true
		}
	}
	return false
}

func (n *Node) renumber(name string) {
	total := 0
	for _, c := range n.Children {
		if c.Name == name {
			total++
		}
	}
	var pos int32
	for _, c := range n.Children {
		if c.Name == name {
			pos++
			c.pos, c.shared = pos, total > 1
		}
	}
}

// WriteXML serializes the subtree rooted at n as indented XML.
func (n *Node) WriteXML(w io.Writer) error {
	bw := bufio.NewWriter(w)
	n.write(bw, 0)
	return bw.Flush()
}

// write escapes straight into bw. bufio.Writer keeps the first write
// error and Flush reports it, so the calls here need not check.
func (n *Node) write(bw *bufio.Writer, depth int) {
	indent(bw, depth)
	bw.WriteByte('<')
	bw.WriteString(n.Name)
	for _, a := range n.Attrs {
		bw.WriteByte(' ')
		bw.WriteString(a.Name)
		bw.WriteString(`="`)
		attrEscaper.WriteString(bw, a.Value)
		bw.WriteByte('"')
	}
	if len(n.Children) == 0 && n.Text == "" {
		bw.WriteString("/>\n")
		return
	}
	bw.WriteByte('>')
	textEscaper.WriteString(bw, n.Text)
	if len(n.Children) > 0 {
		bw.WriteByte('\n')
		for _, c := range n.Children {
			c.write(bw, depth+1)
		}
		indent(bw, depth)
	}
	bw.WriteString("</")
	bw.WriteString(n.Name)
	bw.WriteString(">\n")
}

func indent(bw *bufio.Writer, depth int) {
	for range depth {
		bw.WriteString("  ")
	}
}

// String renders the subtree as XML text.
func (n *Node) String() string {
	var sb strings.Builder
	_ = n.WriteXML(&sb)
	return sb.String()
}

// WriteXML serializes the document with an XML declaration.
func (d *Document) WriteXML(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n")
	d.Root.write(bw, 0)
	return bw.Flush()
}

// String renders the document as XML text.
func (d *Document) String() string {
	var sb strings.Builder
	_ = d.WriteXML(&sb)
	return sb.String()
}

// TextContent returns the concatenation of all text in the subtree, in
// document order, separated by single spaces: the value of a composite
// element (core.Mapping.MarkComposite).
func (n *Node) TextContent() string {
	var parts []string
	n.Walk(func(m *Node) bool {
		if m.Text != "" {
			parts = append(parts, m.Text)
		}
		return true
	})
	return strings.Join(parts, " ")
}

// The serializer's escapers. A Replacer is safe for concurrent use and
// builds its lookup table once, on first use.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", "\"", "&quot;")
)
