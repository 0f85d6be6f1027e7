package xmlstream

import (
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// collect drains a scanner, requiring a clean EOF.
func collect(t *testing.T, input string, targets []string) []*Anchor {
	t.Helper()
	sc, err := NewScanner(strings.NewReader(input), targets)
	if err != nil {
		t.Fatal(err)
	}
	var out []*Anchor
	for {
		a, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if a == nil {
			return out
		}
		out = append(out, a)
	}
}

// The doc exercises everything xmltree.Parse normalizes: comments,
// processing instructions, CDATA, namespace declarations, attributes and
// interleaved character data.
const libDoc = `<?xml version="1.0"?>
<!-- catalog -->
<lib xmlns:x="http://example.com/x">
  <?page-break?>
  <book id="b1">
    <title>The <![CDATA[<Matrix>]]> Explained</title>
    <author x:ref="a1">Smith</author>
    <!-- review pending -->
  </book>
  <shelf>
    <book id="b2"><title>Signs</title><author>Jones</author></book>
  </shelf>
  <book id="b3"><title>Duplicates</title><author>Weis</author></book>
</lib>`

// TestScannerMatchesParse asserts token-for-token agreement with
// xmltree.Parse: every anchor subtree the scanner materializes renders
// identically to the corresponding node of the fully parsed tree, and its
// positional and schema paths match.
func TestScannerMatchesParse(t *testing.T) {
	doc, err := xmltree.ParseString(libDoc)
	if err != nil {
		t.Fatal(err)
	}
	anchors := collect(t, libDoc, []string{"/lib/book"})
	treeBooks := doc.Root.ChildrenNamed("book")
	if len(anchors) != len(treeBooks) {
		t.Fatalf("anchors = %d, want %d (top-level books only)", len(anchors), len(treeBooks))
	}
	for i, a := range anchors {
		if got, want := a.Node.String(), treeBooks[i].String(); got != want {
			t.Errorf("anchor %d subtree:\n got: %s\nwant: %s", i, got, want)
		}
		if got, want := a.Path(), treeBooks[i].Path(); got != want {
			t.Errorf("anchor %d path = %q, want %q", i, got, want)
		}
		if got, want := a.Node.SchemaPath(), treeBooks[i].SchemaPath(); got != want {
			t.Errorf("anchor %d schema path = %q, want %q", i, got, want)
		}
	}
	// The CDATA section must have merged into the title text exactly as
	// Parse merges it.
	if got := anchors[0].Node.Child("title").Text; got != "The <Matrix> Explained" {
		t.Errorf("CDATA title = %q", got)
	}
	// Namespace declarations are dropped, other attributes kept by local
	// name.
	if _, ok := anchors[0].Node.Child("author").Attr("ref"); !ok {
		t.Errorf("author ref attribute lost: %+v", anchors[0].Node.Child("author").Attrs)
	}
}

// TestAnchorPathPredicates pins the positional-path contract: predicates
// appear exactly on steps with same-named siblings, and totals are only
// required to be correct after EOF.
func TestAnchorPathPredicates(t *testing.T) {
	const doc = `<root>
	  <group><item>a</item></group>
	  <group><item>b</item><item>c</item></group>
	  <single><item>d</item></single>
	</root>`
	anchors := collect(t, doc, []string{"/root/group/item", "/root/single/item"})
	want := []string{
		"/root/group[1]/item",    // only item in its group: no predicate on item
		"/root/group[2]/item[1]", // two items: predicate required
		"/root/group[2]/item[2]",
		"/root/single/item", // single is unique: no predicate anywhere
	}
	if len(anchors) != len(want) {
		t.Fatalf("anchors = %d, want %d", len(anchors), len(want))
	}
	for i, a := range anchors {
		if got := a.Path(); got != want[i] {
			t.Errorf("anchor %d path = %q, want %q", i, got, want[i])
		}
	}
}

// TestNestedTargets: an inner target inside an outer target's subtree is
// yielded as its own anchor sharing the outer subtree's nodes.
func TestNestedTargets(t *testing.T) {
	const doc = `<db><disc><track><title>t1</title></track><track><title>t2</title></track></disc></db>`
	anchors := collect(t, doc, []string{"/db/disc", "/db/disc/track"})
	if len(anchors) != 3 {
		t.Fatalf("anchors = %d, want disc + 2 tracks", len(anchors))
	}
	// Tracks close before the disc, so they arrive first.
	if anchors[0].Target != 1 || anchors[1].Target != 1 || anchors[2].Target != 0 {
		t.Fatalf("targets = %d,%d,%d, want 1,1,0",
			anchors[0].Target, anchors[1].Target, anchors[2].Target)
	}
	if anchors[0].Path() != "/db/disc/track[1]" || anchors[2].Path() != "/db/disc" {
		t.Errorf("paths = %q, %q", anchors[0].Path(), anchors[2].Path())
	}
	// The inner anchors are the same nodes the outer subtree holds.
	if got := anchors[2].Node.ChildrenNamed("track")[0]; got != anchors[0].Node {
		t.Error("inner anchor does not share the outer subtree's node")
	}
}

// TestStubAncestors: a detached anchor's Parent chain resolves schema
// paths exactly as the full tree would, without retaining siblings or
// text.
func TestStubAncestors(t *testing.T) {
	const doc = `<a><pad>x</pad><b><c><d>v</d></c></b></a>`
	anchors := collect(t, doc, []string{"/a/b/c"})
	if len(anchors) != 1 {
		t.Fatalf("anchors = %d", len(anchors))
	}
	n := anchors[0].Node
	if got := n.Child("d").SchemaPath(); got != "/a/b/c/d" {
		t.Errorf("schema path = %q", got)
	}
	if n.Child("d").Parent != n {
		t.Error("the anchor's child does not lead back to the anchor")
	}
	// Stubs carry structure only.
	for p := n.Parent; p != nil; p = p.Parent {
		if p.Text != "" || len(p.Attrs) != 0 {
			t.Errorf("stub %s carries content", p.Name)
		}
	}
}

func TestScannerErrors(t *testing.T) {
	for _, tc := range []struct {
		name, doc string
		targets   []string
		wantErr   string
	}{
		{"empty", "", []string{"/a"}, "empty document"},
		{"multiple roots", "<a></a><a></a>", []string{"/a/b"}, "multiple root"},
		{"malformed", "<a><b></a>", []string{"/a/b"}, "syntax error"},
		{"bad target", "<a/>", []string{"a/b"}, "absolute schema path"},
		{"wildcard target", "<a/>", []string{"/a/*"}, "absolute schema path"},
		{"no targets", "<a/>", nil, "no target"},
		{"duplicate target", "<a/>", []string{"/a/b", "/a/b"}, "duplicate target"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := NewScanner(strings.NewReader(tc.doc), tc.targets)
			if err == nil {
				for {
					var a *Anchor
					a, err = sc.Next()
					if a == nil || err != nil {
						break
					}
				}
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestRootAnchor: the root element itself can be a target.
func TestRootAnchor(t *testing.T) {
	anchors := collect(t, "<a><b>x</b></a>", []string{"/a"})
	if len(anchors) != 1 || anchors[0].Path() != "/a" {
		t.Fatalf("anchors = %+v", anchors)
	}
	if anchors[0].Node.Parent != nil {
		t.Error("root anchor should have no stub ancestors")
	}
}
