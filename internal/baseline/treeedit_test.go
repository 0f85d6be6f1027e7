package baseline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/od"
	"repro/internal/xmltree"
)

func nodeFor(t *testing.T, s string) *xmltree.Node {
	t.Helper()
	doc, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return doc.Root
}

func TestTreeEditDetect(t *testing.T) {
	s := od.NewMemStore()
	add := func(xml string, vals ...string) {
		o := &od.OD{Node: nodeFor(t, xml)}
		for _, v := range vals {
			o.Tuples = append(o.Tuples, od.Tuple{Value: v, Name: "/d/v", Type: "V"})
		}
		s.Add(o)
	}
	// near-identical subtrees sharing a blocking value
	add(`<d><v>alpha</v><x>1</x><y>2</y></d>`, "alpha")
	add(`<d><v>alpha</v><x>1</x><y>3</y></d>`, "alpha")
	// shares the blocking value but structurally very different
	add(`<d><v>alpha</v><a/><b/><c/><e/><f/><g/><h/><i/></d>`, "alpha")
	// unrelated
	add(`<d><v>omega</v><x>9</x></d>`, "omega")
	s.Finalize(0.15)

	te := TreeEdit{Theta: 0.2}
	got := te.Detect(s)
	if !hasPair(got, [2]int32{0, 1}) {
		t.Errorf("tree edit missed near-identical pair: %v", got)
	}
	for _, p := range got {
		if p == ([2]int32{0, 2}) || p == ([2]int32{1, 2}) {
			t.Errorf("tree edit paired structurally different trees: %v", got)
		}
	}
	if te.Name() == "" {
		t.Error("empty name")
	}
}

func TestTreeEditSkipsNodelessODs(t *testing.T) {
	s := od.NewMemStore()
	s.Add(&od.OD{Tuples: []od.Tuple{{Value: "x", Type: "T"}}})
	s.Add(&od.OD{Tuples: []od.Tuple{{Value: "x", Type: "T"}}})
	s.Finalize(0.15)
	if got := (TreeEdit{}).Detect(s); len(got) != 0 {
		t.Errorf("nodeless store produced pairs: %v", got)
	}
}

func TestDistanceIdentical(t *testing.T) {
	a := nodeFor(t, `<a><b>x</b><c><d>y</d></c></a>`)
	b := nodeFor(t, `<a><b>x</b><c><d>y</d></c></a>`)
	if got := treeDistance(a, b); got != 0 {
		t.Errorf("identical trees distance = %d", got)
	}
	if got := treeNormalized(a, b); got != 0 {
		t.Errorf("identical normalized distance = %v", got)
	}
}

func TestDistanceKnownCases(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		// single relabel (name)
		{`<a><b/></a>`, `<a><c/></a>`, 1},
		// single relabel (text)
		{`<a><b>x</b></a>`, `<a><b>y</b></a>`, 1},
		// insert one leaf
		{`<a><b/></a>`, `<a><b/><c/></a>`, 1},
		// delete an inner node (children move up)
		{`<a><m><b/><c/></m></a>`, `<a><b/><c/></a>`, 1},
		// empty-ish vs rich
		{`<a/>`, `<a><b/><c/><d/></a>`, 3},
		// completely different single nodes
		{`<x/>`, `<y/>`, 1},
		// the classic Zhang-Shasha example: f(d(a c(b)) e) vs
		// f(c(d(a b)) e) has distance 2
		{`<f><d><a/><c><b/></c></d><e/></f>`, `<f><c><d><a/><b/></d></c><e/></f>`, 2},
	}
	for _, tc := range cases {
		a, b := nodeFor(t, tc.a), nodeFor(t, tc.b)
		if got := treeDistance(a, b); got != tc.want {
			t.Errorf("treeDistance(%s, %s) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestNormalizedRange(t *testing.T) {
	a := nodeFor(t, `<a><b>x</b></a>`)
	b := nodeFor(t, `<q><r/><s/><t/><u/></q>`)
	n := treeNormalized(a, b)
	if n <= 0 || n > 1 {
		t.Errorf("Normalized = %v, want in (0,1]", n)
	}
	if got := treeNormalized(a, a); got != 0 {
		t.Errorf("self normalized = %v", got)
	}
}

// Property: the distance is a metric on random small trees: symmetric,
// zero iff equal (under label+text equality), triangle inequality, and
// bounded by the total node count.
func TestQuickMetricProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomTree(rng, 0)
		b := randomTree(rng, 0)
		c := randomTree(rng, 0)
		dab := treeDistance(a, b)
		dba := treeDistance(b, a)
		if dab != dba {
			return false
		}
		if dab > a.CountNodes()+b.CountNodes() {
			return false
		}
		if treeDistance(a, a) != 0 {
			return false
		}
		dac := treeDistance(a, c)
		dcb := treeDistance(c, b)
		return dab <= dac+dcb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a single applied edit changes the distance by at most 1.
func TestQuickSingleEditBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomTree(rng, 0)
		b := a.Clone()
		// apply one rename somewhere
		nodes := append([]*xmltree.Node{b}, b.Descendants()...)
		nodes[rng.Intn(len(nodes))].Name = "renamed"
		d := treeDistance(a, b)
		return d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func randomTree(rng *rand.Rand, depth int) *xmltree.Node {
	names := []string{"a", "b", "c"}
	texts := []string{"", "x", "y"}
	n := xmltree.NewNode(names[rng.Intn(len(names))])
	n.Text = texts[rng.Intn(len(texts))]
	if depth < 3 {
		for i := 0; i < rng.Intn(3); i++ {
			n.AppendChild(randomTree(rng, depth+1))
		}
	}
	return n
}

func BenchmarkDistanceMediumTrees(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	t1 := randomTree(rng, 0)
	t2 := randomTree(rng, 0)
	for i := 0; i < 4; i++ { // widen the trees
		t1.AppendChild(randomTree(rng, 1))
		t2.AppendChild(randomTree(rng, 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		treeDistance(t1, t2)
	}
}
