// Package xmlstream is the streaming ingestion layer under the DogmatiX
// pipeline: a pull parser over encoding/xml token events that recognizes
// candidate anchors — elements whose absolute schema path matches one of
// the compiled Step 1 candidate paths — and materializes only the bounded
// subtree each anchor spans. The caller pulls one Anchor at a time,
// flattens it into an object description and drops it, so peak live heap
// is bounded by the largest anchor subtree (plus per-path counters), not
// by document size.
//
// The scanner accepts exactly the documents xmltree.Parse accepts and
// materializes bit-identical subtrees: both share xmltree.FromStartElement
// for element/attribute conversion, both concatenate raw character data
// (CDATA included) and trim it at element close, and both skip comments,
// processing instructions and directives.
//
// Positional paths: an anchor's positionally qualified XPath (the
// candidate's identity in results, e.g. /freedb/disc[7]) needs the total
// number of same-named siblings at every step — which a single forward
// pass only knows once the enclosing element has closed. Scanner therefore
// keeps one shared counter per (open ancestor instance, child name) on
// target chains, and Anchor.Path defers rendering against those counters;
// call it only after the scan has reached EOF, when every counter is
// final.
package xmlstream

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"repro/internal/xmltree"
)

// step is one location step of an anchor's positional path. count points
// at the parent instance's sibling counter for this name; it is nil for
// the root step, which never takes a predicate.
type step struct {
	name  string
	pos   int
	count *int
}

// Anchor is one candidate subtree pulled from the stream.
type Anchor struct {
	// Target is the index of the matched path in the NewScanner targets.
	Target int
	// Node is the materialized subtree, detached from any document. Its
	// Parent chain is a fresh run of name-only stub ancestors so that
	// SchemaPath resolves exactly as it would in the full tree; the
	// stubs carry no text, attributes or siblings.
	Node *xmltree.Node

	steps []step
}

// Path renders the anchor's positionally qualified XPath, matching
// xmltree.Node.Path on the fully materialized document: a position
// predicate appears exactly on steps whose element has same-named
// siblings. Valid only after the scan has returned EOF — position totals
// are not final earlier.
func (a *Anchor) Path() string {
	var sb strings.Builder
	for _, st := range a.steps {
		sb.WriteByte('/')
		sb.WriteString(st.name)
		if st.count != nil && *st.count > 1 {
			fmt.Fprintf(&sb, "[%d]", st.pos)
		}
	}
	return sb.String()
}

// frame is one open element. Frames off every target chain are "dead":
// they track nothing and cost nothing beyond the stack slot. Frames on a
// chain ("live") carry their path and the per-child-name sibling counters
// anchors below them need; frames inside an anchor additionally carry the
// node being materialized.
type frame struct {
	name   string
	live   bool
	path   string          // set iff live
	counts map[string]*int // lazily allocated, live frames only
	step   step            // this frame's own location step
	node   *xmltree.Node   // set iff materializing
	anchor *Anchor         // set iff this frame is an anchor root
}

// Scanner pulls candidate anchors out of one XML document.
type Scanner struct {
	dec      *xml.Decoder
	exact    map[string]int  // schema path -> target index
	prefixes map[string]bool // proper prefixes and exact target paths
	stack    []frame
	sawRoot  bool
	done     bool
}

// NewScanner returns a scanner over r for the given candidate paths.
// Targets must be plain absolute schema paths ("/freedb/disc" style:
// child axis only, no predicates or wildcards) — the only form candidate
// queries that survive the schema check can take.
func NewScanner(r io.Reader, targets []string) (*Scanner, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("xmlstream: no target paths")
	}
	s := &Scanner{
		dec:      xml.NewDecoder(r),
		exact:    make(map[string]int, len(targets)),
		prefixes: map[string]bool{},
	}
	for i, t := range targets {
		if !strings.HasPrefix(t, "/") || strings.ContainsAny(t, "[]*") {
			return nil, fmt.Errorf("xmlstream: target %q is not a plain absolute schema path", t)
		}
		if dup, ok := s.exact[t]; ok {
			return nil, fmt.Errorf("xmlstream: duplicate target %q (indexes %d and %d)", t, dup, i)
		}
		s.exact[t] = i
		for p := t; p != "/" && p != ""; p = p[:strings.LastIndexByte(p, '/')] {
			s.prefixes[p] = true
		}
	}
	return s, nil
}

// Next returns the next anchor in document order, or (nil, nil) once the
// document has been fully consumed. After the nil anchor, every
// previously returned Anchor.Path is final.
func (s *Scanner) Next() (*Anchor, error) {
	if s.done {
		return nil, nil
	}
	for {
		tok, err := s.dec.Token()
		if err == io.EOF {
			s.done = true
			if !s.sawRoot {
				return nil, fmt.Errorf("xmlstream: empty document")
			}
			if len(s.stack) != 0 {
				return nil, fmt.Errorf("xmlstream: unclosed element %s", s.stack[len(s.stack)-1].name)
			}
			return nil, nil
		}
		if err != nil {
			s.done = true
			return nil, fmt.Errorf("xmlstream: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if err := s.open(t); err != nil {
				s.done = true
				return nil, err
			}
		case xml.EndElement:
			if a := s.close(); a != nil {
				return a, nil
			}
		case xml.CharData:
			if n := len(s.stack); n > 0 && s.stack[n-1].node != nil {
				s.stack[n-1].node.Text += string(t)
			}
		}
	}
}

func (s *Scanner) open(t xml.StartElement) error {
	name := t.Name.Local
	f := frame{name: name}

	var parent *frame
	if len(s.stack) == 0 {
		if s.sawRoot {
			return fmt.Errorf("xmlstream: multiple root elements")
		}
		s.sawRoot = true
		f.path = "/" + name
		f.live = s.prefixes[f.path]
		f.step = step{name: name} // root step: no predicate, ever
	} else {
		parent = &s.stack[len(s.stack)-1]
		if parent.live {
			path := parent.path + "/" + name
			if s.prefixes[path] {
				f.live = true
				f.path = path
				if parent.counts == nil {
					parent.counts = map[string]*int{}
				}
				c := parent.counts[name]
				if c == nil {
					c = new(int)
					parent.counts[name] = c
				}
				*c++
				f.step = step{name: name, pos: *c, count: c}
			}
		}
	}

	// Materialize: continue the enclosing anchor's subtree, and/or start
	// a new anchor when this element's path is itself a target (targets
	// may nest; an inner anchor shares the outer subtree's nodes).
	if parent != nil && parent.node != nil {
		f.node = parent.node.AppendChild(xmltree.FromStartElement(t))
	}
	if f.live {
		if ti, ok := s.exact[f.path]; ok {
			if f.node == nil {
				f.node = xmltree.FromStartElement(t)
				f.node.Parent = s.stubAncestors()
			}
			steps := make([]step, 0, len(s.stack)+1)
			for i := range s.stack {
				steps = append(steps, s.stack[i].step)
			}
			steps = append(steps, f.step)
			f.anchor = &Anchor{Target: ti, Node: f.node, steps: steps}
		}
	}
	s.stack = append(s.stack, f)
	return nil
}

// stubAncestors builds a fresh name-only Parent chain mirroring the open
// element stack, so a detached anchor's SchemaPath matches the full tree.
func (s *Scanner) stubAncestors() *xmltree.Node {
	var p *xmltree.Node
	for i := range s.stack {
		p = &xmltree.Node{Name: s.stack[i].name, Parent: p}
	}
	return p
}

func (s *Scanner) close() *Anchor {
	f := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	if f.node != nil {
		f.node.Text = strings.TrimSpace(f.node.Text)
	}
	return f.anchor
}
