package core

// This file replays the paper's running example end to end: the XML data
// of Table 1, the mapping of Table 3, the object descriptions of Table 2,
// the classification of Example 3 (movies 1 and 2 are duplicates, movie 3
// is not) and the Fig. 3 dupcluster output.

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/heuristics"
	"repro/internal/xmltree"
	"repro/internal/xsd"
)

const movieDoc = `<moviedoc>
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

// table3Mapping is the mapping M of Table 3.
func table3Mapping() *Mapping {
	return NewMapping().
		MustAdd("MOVIE", "$doc/moviedoc/movie").
		MustAdd("TITLE", "$doc/moviedoc/movie/title").
		MustAdd("YEAR", "$doc/moviedoc/movie/year").
		MustAdd("ACTOR", "$doc/moviedoc/movie/actor").
		MustAdd("ACTORNAME", "$doc/moviedoc/movie/actor/name").
		MustAdd("ACTORROLE", "$doc/moviedoc/movie/actor/role")
}

// descHeuristic reproduces the example's description selection: title,
// year, and actor/name (Section 2.2).
type descHeuristic struct{}

func (descHeuristic) Select(anchor *xsd.Element) []*xsd.Element {
	var out []*xsd.Element
	for _, e := range anchor.Children {
		switch e.Name {
		case "title", "year":
			out = append(out, e)
		case "actor":
			for _, c := range e.Children {
				if c.Name == "name" {
					out = append(out, c)
				}
			}
		}
	}
	return out
}

func (descHeuristic) String() string { return "example" }

func parseMovies(t *testing.T) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(movieDoc)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func exampleDetector(t *testing.T, cfg Config) *Detector {
	t.Helper()
	if cfg.Heuristic == nil {
		cfg.Heuristic = descHeuristic{}
	}
	d, err := NewDetector(table3Mapping(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPaperExampleODGeneration(t *testing.T) {
	// The ODs must match Table 2.
	d := exampleDetector(t, Config{ThetaTuple: 0.55, ThetaCand: 0.55})
	res, err := d.Detect("MOVIE", Source{Doc: parseMovies(t)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 3 {
		t.Fatalf("candidates = %d, want 3", len(res.Candidates))
	}
	want := [][]string{
		{"(1999, /moviedoc/movie/year)", "(Keanu Reeves, /moviedoc/movie/actor/name)",
			"(L. Fishburne, /moviedoc/movie/actor/name)", "(The Matrix, /moviedoc/movie/title)"},
		{"(1999, /moviedoc/movie/year)", "(Keanu Reeves, /moviedoc/movie/actor/name)",
			"(Matrix, /moviedoc/movie/title)"},
		{"(2002, /moviedoc/movie/year)", "(Mel Gibson, /moviedoc/movie/actor/name)",
			"(Signs, /moviedoc/movie/title)"},
	}
	for i, o := range res.Store.ODs() {
		var got []string
		for _, tp := range o.Tuples {
			got = append(got, tp.String())
		}
		sort.Strings(got)
		if strings.Join(got, "; ") != strings.Join(want[i], "; ") {
			t.Errorf("OD %d = %v\nwant %v", i+1, got, want[i])
		}
	}
}

func TestPaperExampleDetection(t *testing.T) {
	d := exampleDetector(t, Config{ThetaTuple: 0.55, ThetaCand: 0.55})
	res, err := d.Detect("MOVIE", Source{Doc: parseMovies(t)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 {
		t.Fatalf("pairs = %v, want exactly (movie1, movie2)", res.Pairs)
	}
	p := res.Pairs[0]
	if p.I != 0 || p.J != 1 {
		t.Errorf("pair = (%d,%d), want (0,1)", p.I, p.J)
	}
	if len(res.Clusters) != 1 || len(res.Clusters[0]) != 2 {
		t.Errorf("clusters = %v", res.Clusters)
	}
	if res.Stats.PairsDetected != 1 || res.Stats.Candidates != 3 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestPaperExampleFig3Output(t *testing.T) {
	d := exampleDetector(t, Config{ThetaTuple: 0.55, ThetaCand: 0.55})
	res, err := d.Detect("MOVIE", Source{Doc: parseMovies(t)})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteXML(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`<dupcluster oid="1">`,
		`<duplicate xpath="/moviedoc/movie[1]"/>`,
		`<duplicate xpath="/moviedoc/movie[2]"/>`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig. 3 output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "movie[3]") {
		t.Error("movie 3 must not appear in any cluster")
	}
}

func TestPaperExampleWithFilter(t *testing.T) {
	// With filler movies providing realistic softIDF mass, the object
	// filter prunes the duplicate-free movies but keeps movies 1 and 2.
	doc := parseMovies(t)
	fillers := []struct{ title, year, name string }{
		{"Blade Runner", "1982", "Harrison Ford"},
		{"Casablanca", "1942", "Humphrey Bogart"},
		{"Goodfellas", "1990", "Ray Liotta"},
		{"Jurassic Park", "1993", "Sam Neill"},
		{"Pulp Fiction", "1994", "John Travolta"},
		{"Spirited Away", "2001", "Rumi Hiiragi"},
		{"Amelie", "2001", "Audrey Tautou"},
		{"Fight Club", "1999", "Edward Norton"},
		{"Vertigo", "1958", "James Stewart"},
		{"Alien", "1979", "Sigourney Weaver"},
		{"Heat", "1995", "Al Pacino"},
		{"Fargo", "1996", "Frances McDormand"},
	}
	for _, f := range fillers {
		m := xmltree.NewNode("movie")
		m.AppendChild(xmltree.NewTextNode("title", f.title))
		m.AppendChild(xmltree.NewTextNode("year", f.year))
		a := xmltree.NewNode("actor")
		a.AppendChild(xmltree.NewTextNode("name", f.name))
		a.AppendChild(xmltree.NewTextNode("role", "Self"))
		m.AppendChild(a)
		doc.Root.AppendChild(m)
	}
	d := exampleDetector(t, Config{
		ThetaTuple: 0.55, ThetaCand: 0.55,
		UseFilter: true, KeepFilterValues: true,
	})
	res, err := d.Detect("MOVIE", Source{Doc: doc})
	if err != nil {
		t.Fatal(err)
	}
	prunedSet := map[int32]bool{}
	for _, p := range res.Pruned {
		prunedSet[p] = true
	}
	if prunedSet[0] || prunedSet[1] {
		t.Errorf("filter pruned a real duplicate: pruned=%v f=%v",
			res.Pruned, res.FilterValues[:3])
	}
	if len(res.Pairs) != 1 || res.Pairs[0].I != 0 || res.Pairs[0].J != 1 {
		t.Errorf("pairs = %v", res.Pairs)
	}
	if len(res.FilterValues) != res.Stats.Candidates {
		t.Errorf("filter values = %d, want %d", len(res.FilterValues), res.Stats.Candidates)
	}
	if res.Stats.Pruned == 0 {
		t.Error("expected some filler movies to be pruned")
	}
}

func TestBlockingMatchesFullComparisons(t *testing.T) {
	doc := parseMovies(t)
	full := exampleDetector(t, Config{ThetaTuple: 0.55, ThetaCand: 0.55, DisableBlocking: true})
	blocked := exampleDetector(t, Config{ThetaTuple: 0.55, ThetaCand: 0.55})
	rf, err := full.Detect("MOVIE", Source{Doc: doc})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := blocked.Detect("MOVIE", Source{Doc: parseMovies(t)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Pairs) != len(rb.Pairs) {
		t.Fatalf("blocking changed results: %v vs %v", rf.Pairs, rb.Pairs)
	}
	for i := range rf.Pairs {
		if rf.Pairs[i] != rb.Pairs[i] {
			t.Errorf("pair %d: %v vs %v", i, rf.Pairs[i], rb.Pairs[i])
		}
	}
	if rb.Stats.Compared > rf.Stats.Compared {
		t.Errorf("blocking compared more pairs (%d) than full (%d)",
			rb.Stats.Compared, rf.Stats.Compared)
	}
}

func TestDetectorValidation(t *testing.T) {
	if _, err := NewDetector(nil, Config{Heuristic: descHeuristic{}}); err == nil {
		t.Error("nil mapping accepted")
	}
	if _, err := NewDetector(NewMapping(), Config{}); err == nil {
		t.Error("missing heuristic accepted")
	}
	if _, err := NewDetector(NewMapping(), Config{Heuristic: descHeuristic{}, ThetaTuple: 2}); err == nil {
		t.Error("θtuple out of range accepted")
	}
	if _, err := NewDetector(NewMapping(), Config{Heuristic: descHeuristic{}, ThetaCand: -1}); err == nil {
		t.Error("θcand out of range accepted")
	}
	d := exampleDetector(t, Config{})
	if _, err := d.Detect("NOPE", Source{Doc: parseMovies(t)}); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := d.Detect("MOVIE"); err == nil {
		t.Error("no sources accepted")
	}
	if _, err := d.Detect("MOVIE", Source{}); err == nil {
		t.Error("source without document accepted")
	}
}

func TestDetectUsesProvidedSchema(t *testing.T) {
	// Passing an explicit XSD must work the same as inference here.
	const moviesXSD = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	  <xs:element name="moviedoc">
	    <xs:complexType><xs:sequence>
	      <xs:element name="movie" maxOccurs="unbounded">
	        <xs:complexType><xs:sequence>
	          <xs:element name="title" type="xs:string"/>
	          <xs:element name="year" type="xs:gYear"/>
	          <xs:element name="actor" maxOccurs="unbounded">
	            <xs:complexType><xs:sequence>
	              <xs:element name="name" type="xs:string"/>
	              <xs:element name="role" type="xs:string"/>
	            </xs:sequence></xs:complexType>
	          </xs:element>
	        </xs:sequence></xs:complexType>
	      </xs:element>
	    </xs:sequence></xs:complexType>
	  </xs:element>
	</xs:schema>`
	schema, err := xsd.ParseString(moviesXSD)
	if err != nil {
		t.Fatal(err)
	}
	d := exampleDetector(t, Config{ThetaTuple: 0.55, ThetaCand: 0.55})
	res, err := d.Detect("MOVIE", Source{Doc: parseMovies(t), Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 {
		t.Errorf("pairs = %v", res.Pairs)
	}
}

func TestMultiSourceDetection(t *testing.T) {
	// Two sources with different schemas describing the same real-world
	// type; the mapping aligns their paths.
	src1 := `<movies>
	  <movie><title>The Matrix</title><year>1999</year></movie>
	  <movie><title>Signs</title><year>2002</year></movie>
	</movies>`
	src2 := `<filme>
	  <film><titel>The Matrix</titel><jahr>1999</jahr></film>
	  <film><titel>Unique German Film</titel><jahr>1980</jahr></film>
	</filme>`
	d1, _ := xmltree.ParseString(src1)
	d2, _ := xmltree.ParseString(src2)
	m := NewMapping().
		MustAdd("MOVIE", "/movies/movie", "/filme/film").
		MustAdd("TITLE", "/movies/movie/title", "/filme/film/titel").
		MustAdd("YEAR", "/movies/movie/year", "/filme/film/jahr")
	det, err := NewDetector(m, Config{Heuristic: heuristics.RDistantDescendants(1)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Detect("MOVIE", Source{Name: "en", Doc: d1}, Source{Name: "de", Doc: d2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 4 {
		t.Fatalf("candidates = %d, want 4", len(res.Candidates))
	}
	if len(res.Pairs) != 1 {
		t.Fatalf("pairs = %v, want the cross-source Matrix pair", res.Pairs)
	}
	p := res.Pairs[0]
	ci, cj := res.Candidates[p.I], res.Candidates[p.J]
	if ci.Source == cj.Source {
		t.Errorf("expected a cross-source pair, got sources %d,%d", ci.Source, cj.Source)
	}
}

func TestParseMapping(t *testing.T) {
	text := `# comment line
MOVIE $doc/moviedoc/movie
TITLE /moviedoc/movie/title /filmdoc/film/name
`
	m, err := ParseMapping(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.TypeOf("/moviedoc/movie/title"); got != "TITLE" {
		t.Errorf("TypeOf title = %q", got)
	}
	if got := m.TypeOf("/filmdoc/film/name"); got != "TITLE" {
		t.Errorf("TypeOf name = %q", got)
	}
	if got := m.TypeOf("/unmapped/path"); got != "/unmapped/path" {
		t.Errorf("unmapped TypeOf = %q", got)
	}
}

func TestMappingErrors(t *testing.T) {
	m := NewMapping()
	if err := m.Add("", "/a"); err == nil {
		t.Error("empty type accepted")
	}
	if err := m.Add("T", "relative/path"); err == nil {
		t.Error("relative path accepted")
	}
	if err := m.Add("T1", "/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := m.Add("T2", "/a/b"); err == nil {
		t.Error("conflicting mapping accepted")
	}
	if _, err := ParseMapping(strings.NewReader("JUSTTYPE\n")); err == nil {
		t.Error("mapping line without paths accepted")
	}
}
