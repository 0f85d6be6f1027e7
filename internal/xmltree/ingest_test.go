package xmltree

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refPath is Path by its definition: a step carries the node's 1-based
// index among the same-named children of its parent whenever there are
// two or more of them. It rescans the siblings at every step, so it is
// quadratic in a run of namesakes; Path must agree with it without that.
func refPath(n *Node) string {
	var parts []string
	for m := n; m != nil; m = m.Parent {
		step := m.Name
		if m.Parent != nil {
			if same := m.Parent.ChildrenNamed(m.Name); len(same) > 1 {
				step = fmt.Sprintf("%s[%d]", m.Name, slices.Index(same, m)+1)
			}
		}
		parts = append(parts, step)
	}
	slices.Reverse(parts)
	return "/" + strings.Join(parts, "/")
}

// checkPositions compares every node below root with the reference: its
// Path, and its pos as the index among its parent's namesakes.
func checkPositions(t *testing.T, label string, root *Node) {
	t.Helper()
	root.Walk(func(n *Node) bool {
		if got, want := n.Path(), refPath(n); got != want {
			t.Fatalf("%s: Path = %q, want %q", label, got, want)
		}
		if n.Parent != nil {
			if want := slices.Index(n.Parent.ChildrenNamed(n.Name), n) + 1; int(n.pos) != want {
				t.Fatalf("%s: %s has pos %d, want %d", label, refPath(n), n.pos, want)
			}
		}
		return true
	})
}

// wideTree builds a tree over few names with up to 8 children per node,
// so runs and interleavings of namesakes are common.
func wideTree(rng *rand.Rand, depth int) *Node {
	n := NewNode([]string{"a", "b", "c"}[rng.Intn(3)])
	if depth < 3 {
		for range rng.Intn(9) {
			n.AppendChild(wideTree(rng, depth+1))
		}
	}
	return n
}

func TestPathMatchesSiblingScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		root := wideTree(rng, 0)
		checkPositions(t, fmt.Sprintf("seed %d built", seed), root)
		for step := range 30 {
			nodes := append([]*Node{root}, root.Descendants()...)
			n := nodes[rng.Intn(len(nodes))]
			switch op := rng.Intn(3); {
			case op == 0 && n.Parent != nil:
				n.Parent.RemoveChild(n)
				checkPositions(t, "removed subtree", n)
			case op == 1:
				cp := n.Clone()
				checkPositions(t, "detached clone", cp)
				nodes[rng.Intn(len(nodes))].AppendChild(cp)
			default:
				n.AppendChild(NewNode([]string{"a", "b", "c"}[rng.Intn(3)]))
			}
			checkPositions(t, fmt.Sprintf("seed %d step %d", seed, step), root)
		}
	}
}

// TestPathAllocsIndependentOfSiblings pins Path at O(depth): a node's
// path costs the same allocations under 10 namesakes as under 10 000.
func TestPathAllocsIndependentOfSiblings(t *testing.T) {
	allocs := func(siblings int) float64 {
		root := NewNode("cds")
		var last *Node
		for range siblings {
			last = root.AppendChild(NewNode("disc")).AppendChild(NewTextNode("title", "x"))
		}
		return testing.AllocsPerRun(50, func() { _ = last.Path() })
	}
	if few, many := allocs(10), allocs(10000); few != many {
		t.Errorf("Path allocs: %v under 10 siblings, %v under 10000", few, many)
	}
}

// TestWriteXMLGolden pins the serialization byte for byte, escaping
// included: snapshot fingerprints digest these bytes.
func TestWriteXMLGolden(t *testing.T) {
	root := NewNode("cds")
	disc := root.AppendChild(NewNode("disc"))
	disc.Attrs = []Attr{{Name: "id", Value: `a&b<c>d"e`}, {Name: "lang", Value: "en"}}
	disc.AppendChild(NewTextNode("title", `Rock & Roll <Live> "1979"`))
	disc.AppendChild(NewNode("tracks"))
	mixed := root.AppendChild(NewTextNode("note", "a > b & c < d"))
	mixed.AppendChild(NewTextNode("em", `"quoted"`))
	const want = `<?xml version="1.0" encoding="UTF-8"?>
<cds>
  <disc id="a&amp;b&lt;c>d&quot;e" lang="en">
    <title>Rock &amp; Roll &lt;Live&gt; "1979"</title>
    <tracks/>
  </disc>
  <note>a &gt; b &amp; c &lt; d
    <em>"quoted"</em>
  </note>
</cds>
`
	doc := &Document{Root: root}
	if got := doc.String(); got != want {
		t.Errorf("Document.WriteXML =\n%s\nwant\n%s", got, want)
	}
	if got, want := root.String(), want[strings.IndexByte(want, '\n')+1:]; got != want {
		t.Errorf("Node.WriteXML =\n%s\nwant\n%s", got, want)
	}
}

// BenchmarkParsePaths is materialized ingest at the scale of the
// paper's Dataset 3: parse a document of n sibling candidates, then
// render every candidate's positional path. Both steps are linear, so
// the 10k rung costs ~10× the 1k rung; a sibling rescan shows as ~100×.
//
//	go test ./internal/xmltree -run xxx -bench ParsePaths -benchmem
func BenchmarkParsePaths(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		var sb strings.Builder
		sb.WriteString("<freedb>\n")
		for i := range n {
			fmt.Fprintf(&sb, "  <disc>\n    <did>%08x</did>\n    <title>Disc &amp; %d</title>\n    <tracks><title>a</title><title>b</title></tracks>\n  </disc>\n", i, i)
		}
		sb.WriteString("</freedb>\n")
		data := sb.String()
		b.Run(fmt.Sprintf("siblings=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for range b.N {
				doc, err := ParseString(data)
				if err != nil {
					b.Fatal(err)
				}
				for _, disc := range doc.Root.Children {
					_ = disc.Path()
				}
			}
		})
	}
}
