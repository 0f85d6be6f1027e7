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
	"encoding/xml"
	"fmt"
	"io"
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

	// pos is the 1-based index among same-named siblings, set during
	// parsing/building and used for positional XPaths.
	pos int
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
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end element %s", t.Name.Local)
			}
			top := stack[len(stack)-1]
			top.Text = strings.TrimSpace(top.Text)
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				stack[len(stack)-1].Text += string(t)
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
// positional index used by Path.
func (n *Node) AppendChild(child *Node) *Node {
	child.Parent = n
	child.pos = 1
	for _, c := range n.Children {
		if c.Name == child.Name {
			child.pos++
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
// for elements with same-named siblings.
func (n *Node) Path() string {
	var parts []string
	for m := n; m != nil; m = m.Parent {
		step := m.Name
		if m.Parent != nil && len(m.Parent.ChildrenNamed(m.Name)) > 1 {
			step = fmt.Sprintf("%s[%d]", m.Name, m.pos)
		}
		parts = append(parts, step)
	}
	reverse(parts)
	return "/" + strings.Join(parts, "/")
}

// SchemaPath returns the absolute path of n without positional predicates,
// e.g. /moviedoc/movie/actor/name. This is the "name" component of OD
// tuples and the key used to look up real-world types in mapping M.
func (n *Node) SchemaPath() string {
	var parts []string
	for m := n; m != nil; m = m.Parent {
		parts = append(parts, m.Name)
	}
	reverse(parts)
	return "/" + strings.Join(parts, "/")
}

// Clone deep-copies the subtree rooted at n. The clone is detached.
func (n *Node) Clone() *Node {
	cp := &Node{Name: n.Name, Text: n.Text, pos: n.pos}
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
	pos := 0
	for _, c := range n.Children {
		if c.Name == name {
			pos++
			c.pos = pos
		}
	}
}

// WriteXML serializes the subtree rooted at n as indented XML.
func (n *Node) WriteXML(w io.Writer) error {
	return n.write(w, 0)
}

func (n *Node) write(w io.Writer, depth int) error {
	ind := strings.Repeat("  ", depth)
	var attrs strings.Builder
	for _, a := range n.Attrs {
		fmt.Fprintf(&attrs, " %s=\"%s\"", a.Name, escapeAttr(a.Value))
	}
	if len(n.Children) == 0 && n.Text == "" {
		_, err := fmt.Fprintf(w, "%s<%s%s/>\n", ind, n.Name, attrs.String())
		return err
	}
	if len(n.Children) == 0 {
		_, err := fmt.Fprintf(w, "%s<%s%s>%s</%s>\n", ind, n.Name, attrs.String(), escapeText(n.Text), n.Name)
		return err
	}
	if _, err := fmt.Fprintf(w, "%s<%s%s>", ind, n.Name, attrs.String()); err != nil {
		return err
	}
	if n.Text != "" {
		if _, err := io.WriteString(w, escapeText(n.Text)); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := c.write(w, depth+1); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s</%s>\n", ind, n.Name)
	return err
}

// String renders the subtree as XML text.
func (n *Node) String() string {
	var sb strings.Builder
	_ = n.WriteXML(&sb)
	return sb.String()
}

// WriteXML serializes the document with an XML declaration.
func (d *Document) WriteXML(w io.Writer) error {
	if _, err := io.WriteString(w, "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"); err != nil {
		return err
	}
	return d.Root.WriteXML(w)
}

// String renders the document as XML text.
func (d *Document) String() string {
	var sb strings.Builder
	_ = d.WriteXML(&sb)
	return sb.String()
}

// TextContent returns the concatenation of all text in the subtree, in
// document order, separated by single spaces. Useful for naive baselines.
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

func escapeText(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

func escapeAttr(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", "\"", "&quot;")
	return r.Replace(s)
}

func reverse(s []string) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
