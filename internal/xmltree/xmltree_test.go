package xmltree

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

const movieDoc = `<?xml version="1.0"?>
<moviedoc>
  <movie>
    <title>The Matrix</title>
    <year>1999</year>
    <actor><name>Keanu Reeves</name><role>Neo</role></actor>
    <actor><name>L. Fishburne</name><role>Morpheus</role></actor>
  </movie>
  <movie>
    <title>Matrix</title>
    <year>1999</year>
    <actor><name>Keanu Reeves</name><role>The One</role></actor>
  </movie>
  <movie>
    <title>Signs</title>
    <year>2002</year>
    <actor><name>Mel Gibson</name><role>Graham Hess</role></actor>
  </movie>
</moviedoc>`

func mustParse(t *testing.T, s string) *Document {
	t.Helper()
	doc, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return doc
}

func TestParseBasic(t *testing.T) {
	doc := mustParse(t, movieDoc)
	if doc.Root.Name != "moviedoc" {
		t.Fatalf("root = %q, want moviedoc", doc.Root.Name)
	}
	movies := doc.Root.ChildrenNamed("movie")
	if len(movies) != 3 {
		t.Fatalf("got %d movies, want 3", len(movies))
	}
	if got := movies[0].Child("title").Text; got != "The Matrix" {
		t.Errorf("title = %q, want The Matrix", got)
	}
	if got := movies[1].Child("year").Text; got != "1999" {
		t.Errorf("year = %q, want 1999", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"unclosed", "<a><b></b>"},
		{"garbage", "not xml at all <"},
		{"mismatched", "<a></b>"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseString(tc.in); err == nil {
				t.Errorf("ParseString(%q) succeeded, want error", tc.in)
			}
		})
	}
}

func TestParseAttributes(t *testing.T) {
	doc := mustParse(t, `<a id="1" kind="x &amp; y"><b/></a>`)
	if v, ok := doc.Root.Attr("id"); !ok || v != "1" {
		t.Errorf("attr id = %q,%v", v, ok)
	}
	if v, ok := doc.Root.Attr("kind"); !ok || v != "x & y" {
		t.Errorf("attr kind = %q,%v", v, ok)
	}
	if _, ok := doc.Root.Attr("missing"); ok {
		t.Error("found attribute that does not exist")
	}
}

func TestTextTrimmingAndConcat(t *testing.T) {
	doc := mustParse(t, "<a>\n   hello \n</a>")
	if doc.Root.Text != "hello" {
		t.Errorf("text = %q, want hello", doc.Root.Text)
	}
}

func TestPathAndSchemaPath(t *testing.T) {
	doc := mustParse(t, movieDoc)
	movies := doc.Root.ChildrenNamed("movie")
	first := movies[0]
	if got := first.Path(); got != "/moviedoc/movie[1]" {
		t.Errorf("Path = %q", got)
	}
	if got := first.SchemaPath(); got != "/moviedoc/movie" {
		t.Errorf("SchemaPath = %q", got)
	}
	actor2 := movies[0].ChildrenNamed("actor")[1]
	if got := actor2.Path(); got != "/moviedoc/movie[1]/actor[2]" {
		t.Errorf("actor path = %q", got)
	}
	name := actor2.Child("name")
	if got := name.SchemaPath(); got != "/moviedoc/movie/actor/name" {
		t.Errorf("name schema path = %q", got)
	}
	// single-child steps carry no positional predicate
	title := movies[2].Child("title")
	if got := title.Path(); got != "/moviedoc/movie[3]/title" {
		t.Errorf("title path = %q", got)
	}
}

func TestRoot(t *testing.T) {
	doc := mustParse(t, movieDoc)
	name := doc.Root.ChildrenNamed("movie")[0].ChildrenNamed("actor")[0].Child("name")
	if name.Root() != doc.Root {
		t.Error("Root() did not return document root")
	}
}

func TestDescendants(t *testing.T) {
	doc := mustParse(t, movieDoc)
	movie := doc.Root.ChildrenNamed("movie")[0]
	all := movie.Descendants()
	// title, year, actor, name, role, actor, name, role
	if len(all) != 8 {
		t.Errorf("descendants = %d, want 8", len(all))
	}
}

func TestWalkSkipsSubtree(t *testing.T) {
	doc := mustParse(t, `<r><a><c/></a><b/></r>`)
	var visited []string
	doc.Root.Walk(func(n *Node) bool {
		visited = append(visited, n.Name)
		return n.Name != "a" // skip below a
	})
	want := []string{"r", "a", "b"}
	if !reflect.DeepEqual(visited, want) {
		t.Errorf("visited = %v, want %v", visited, want)
	}
}

func TestCloneIsDeepAndDetached(t *testing.T) {
	doc := mustParse(t, movieDoc)
	movie := doc.Root.ChildrenNamed("movie")[0]
	cp := movie.Clone()
	if cp.Parent != nil {
		t.Error("clone should be detached")
	}
	cp.Child("title").Text = "CHANGED"
	if movie.Child("title").Text == "CHANGED" {
		t.Error("clone shares state with original")
	}
	if len(cp.Descendants()) != len(movie.Descendants()) {
		t.Errorf("clone size %d != original %d", len(cp.Descendants()), len(movie.Descendants()))
	}
}

func TestRemoveChildRenumbers(t *testing.T) {
	doc := mustParse(t, `<r><x>1</x><x>2</x><x>3</x></r>`)
	xs := doc.Root.ChildrenNamed("x")
	if !doc.Root.RemoveChild(xs[1]) {
		t.Fatal("RemoveChild failed")
	}
	left := doc.Root.ChildrenNamed("x")
	if len(left) != 2 {
		t.Fatalf("got %d children", len(left))
	}
	if got := left[1].Path(); got != "/r/x[2]" {
		t.Errorf("renumbered path = %q", got)
	}
	if doc.Root.RemoveChild(xs[1]) {
		t.Error("removing twice should fail")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	doc := mustParse(t, movieDoc)
	out := doc.String()
	doc2, err := ParseString(out)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if !treesEqual(doc.Root, doc2.Root) {
		t.Errorf("round trip changed the tree:\n%s\nvs\n%s", out, doc2.String())
	}
}

func TestSerializationEscaping(t *testing.T) {
	n := NewTextNode("a", "x < y & z")
	n.Attrs = append(n.Attrs, Attr{Name: "q", Value: `say "hi" & <bye>`})
	out := n.String()
	doc, err := ParseString(out)
	if err != nil {
		t.Fatalf("re-parse escaped output %q: %v", out, err)
	}
	if doc.Root.Text != "x < y & z" {
		t.Errorf("text = %q", doc.Root.Text)
	}
	if v, _ := doc.Root.Attr("q"); v != `say "hi" & <bye>` {
		t.Errorf("attr = %q", v)
	}
}

func TestTextContent(t *testing.T) {
	doc := mustParse(t, `<r><a>one</a><b><c>two</c></b></r>`)
	if got := doc.Root.TextContent(); got != "one two" {
		t.Errorf("TextContent = %q", got)
	}
}

func TestMultipleRootsRejected(t *testing.T) {
	if _, err := ParseString("<a></a><b></b>"); err == nil {
		t.Error("multiple roots accepted")
	}
}

// Property: building a random tree, serializing, and re-parsing yields an
// equal tree.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := randomTree(rng, 0)
		doc := &Document{Root: root}
		doc2, err := ParseString(doc.String())
		if err != nil {
			return false
		}
		return treesEqual(root, doc2.Root)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Path() of every node resolves uniquely within the tree.
func TestQuickPathsUnique(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := randomTree(rng, 0)
		seen := map[string]bool{}
		ok := true
		root.Walk(func(n *Node) bool {
			p := n.Path()
			if seen[p] {
				ok = false
			}
			seen[p] = true
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func randomTree(rng *rand.Rand, depth int) *Node {
	names := []string{"a", "b", "c", "d"}
	n := NewNode(names[rng.Intn(len(names))])
	if rng.Intn(2) == 0 {
		n.Text = randomText(rng)
	}
	if depth < 3 {
		for i := 0; i < rng.Intn(4); i++ {
			n.AppendChild(randomTree(rng, depth+1))
		}
	}
	return n
}

func randomText(rng *rand.Rand) string {
	words := []string{"alpha", "beta", "x<y", "a&b", "gamma"}
	k := rng.Intn(3) + 1
	var parts []string
	for i := 0; i < k; i++ {
		parts = append(parts, words[rng.Intn(len(words))])
	}
	return strings.Join(parts, " ")
}

func treesEqual(a, b *Node) bool {
	if a.Name != b.Name || a.Text != b.Text || len(a.Children) != len(b.Children) || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	for i := range a.Children {
		if !treesEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

func nodeNames(nodes []*Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Name
	}
	return out
}

// TestParseDropsCommentsAndPIs pins the document model's normalization:
// comments, processing instructions and the XML declaration leave no
// trace in the tree — neither as nodes nor as text. The streaming scanner
// (internal/xmlstream) is asserted token-for-token against this behavior.
func TestParseDropsCommentsAndPIs(t *testing.T) {
	doc, err := ParseString(`<?xml version="1.0"?>
<!-- top comment -->
<a>
  <?target data?>
  <b>x<!-- inline -->y</b>
  <!-- between -->
  <c/>
</a>
<!-- trailing comment -->`)
	if err != nil {
		t.Fatal(err)
	}
	if got := nodeNames(doc.Root.Children); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("children = %v, want [b c]", got)
	}
	// Character data around an inline comment concatenates: the comment
	// itself contributes nothing.
	if got := doc.Root.Child("b").Text; got != "xy" {
		t.Errorf("b text = %q, want %q", got, "xy")
	}
	if got := doc.Root.Text; got != "" {
		t.Errorf("root text = %q, want empty (PIs and comments drop)", got)
	}
}

// TestParseMergesCDATA pins CDATA handling: section boundaries vanish and
// their raw content merges into the surrounding character data before the
// trim at element close.
func TestParseMergesCDATA(t *testing.T) {
	doc, err := ParseString(`<a><b>one <![CDATA[<two> & three]]> four</b><c><![CDATA[  only  ]]></c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Root.Child("b").Text; got != "one <two> & three four" {
		t.Errorf("b text = %q", got)
	}
	// Leading/trailing whitespace trims even when it came from CDATA.
	if got := doc.Root.Child("c").Text; got != "only" {
		t.Errorf("c text = %q, want %q", got, "only")
	}
}

// TestFromStartElement pins the shared element-conversion policy: local
// names win, xmlns declarations drop, other attributes keep local names.
func TestFromStartElement(t *testing.T) {
	doc, err := ParseString(`<a xmlns="http://d" xmlns:p="http://p" p:id="1" name="n"/>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Root.Attrs) != 2 {
		t.Fatalf("attrs = %+v, want id and name only", doc.Root.Attrs)
	}
	if v, ok := doc.Root.Attr("id"); !ok || v != "1" {
		t.Errorf("id attr = %q, %v", v, ok)
	}
}
