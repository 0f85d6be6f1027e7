package heuristics

import (
	"reflect"
	"testing"

	"repro/internal/xsd"
)

// cdSchema builds the Dataset 1 / Table 5 schema.
const cdXSD = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="freedb">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="disc" minOccurs="0" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="did" type="xs:ID"/>
              <xs:element name="artist" type="xs:string" maxOccurs="unbounded"/>
              <xs:element name="title" type="xs:string" maxOccurs="unbounded"/>
              <xs:element name="genre" type="xs:string" minOccurs="0"/>
              <xs:element name="year" type="xs:gYear"/>
              <xs:element name="cdextra" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
              <xs:element name="tracks">
                <xs:complexType>
                  <xs:sequence>
                    <xs:element name="title" type="xs:string" maxOccurs="unbounded"/>
                  </xs:sequence>
                </xs:complexType>
              </xs:element>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>`

func discAnchor(t *testing.T) (*xsd.Schema, *xsd.Element) {
	t.Helper()
	s, err := xsd.ParseString(cdXSD)
	if err != nil {
		t.Fatal(err)
	}
	return s, s.ElementAt("/freedb/disc")
}

func paths(anchor *xsd.Element, sel []*xsd.Element) []string {
	out := make([]string, len(sel))
	for i, e := range sel {
		out[i] = RelPath(anchor, e)
	}
	return out
}

func TestRDistantDescendants(t *testing.T) {
	_, disc := discAnchor(t)
	got := paths(disc, RDistantDescendants(1).Select(disc))
	want := []string{"./did", "./artist", "./title", "./genre", "./year", "./cdextra", "./tracks"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("r=1: %v", got)
	}
	got2 := paths(disc, RDistantDescendants(2).Select(disc))
	want2 := append(want, "./tracks/title")
	if !reflect.DeepEqual(got2, want2) {
		t.Errorf("r=2: %v", got2)
	}
	// r beyond depth adds nothing
	got3 := paths(disc, RDistantDescendants(9).Select(disc))
	if !reflect.DeepEqual(got3, want2) {
		t.Errorf("r=9: %v", got3)
	}
}

func TestKClosestDescendantsMatchesTable5Order(t *testing.T) {
	// Table 5 numbers the elements 1..8 in BFS order: did, artist, title,
	// genre, year, cdextra, tracks, tracks/title.
	_, disc := discAnchor(t)
	order := []string{"./did", "./artist", "./title", "./genre", "./year", "./cdextra", "./tracks", "./tracks/title"}
	for k := 1; k <= 8; k++ {
		got := paths(disc, KClosestDescendants(k).Select(disc))
		if !reflect.DeepEqual(got, order[:k]) {
			t.Errorf("k=%d: %v, want %v", k, got, order[:k])
		}
	}
	// k=7 equals r-distant r=1, k=8 equals r=2 (paper Sec. 6.2).
	if !reflect.DeepEqual(
		paths(disc, KClosestDescendants(7).Select(disc)),
		paths(disc, RDistantDescendants(1).Select(disc))) {
		t.Error("k=7 should equal r=1")
	}
	if !reflect.DeepEqual(
		paths(disc, KClosestDescendants(8).Select(disc)),
		paths(disc, RDistantDescendants(2).Select(disc))) {
		t.Error("k=8 should equal r=2")
	}
}

func TestRDistantAncestors(t *testing.T) {
	s, _ := discAnchor(t)
	title := s.ElementAt("/freedb/disc/tracks/title")
	got := paths(title, RDistantAncestors(2).Select(title))
	if !reflect.DeepEqual(got, []string{"..", "../.."}) {
		t.Errorf("ancestors = %v", got)
	}
	got = paths(title, RDistantAncestors(9).Select(title))
	if !reflect.DeepEqual(got, []string{"..", "../..", "../../.."}) {
		t.Errorf("all ancestors = %v", got)
	}
}

func TestConditions(t *testing.T) {
	s, disc := discAnchor(t)
	el := func(p string) *xsd.Element { return s.ElementAt("/freedb/disc" + p) }

	cases := []struct {
		cond Condition
		elem *xsd.Element
		want bool
	}{
		{ContentModel(), el("/did"), true},
		{ContentModel(), el("/tracks"), false}, // complex, no text
		{StringDataType(), el("/did"), true},
		{StringDataType(), el("/year"), false}, // date
		{Mandatory(), el("/did"), true},
		{Mandatory(), el("/genre"), false},       // minOccurs=0
		{Mandatory(), el("/tracks/title"), true}, // tracks ME and title ME
		{Singleton(), el("/did"), true},
		{Singleton(), el("/artist"), false}, // unbounded
		{Singleton(), el("/tracks"), true},
		{Singleton(), el("/tracks/title"), false}, // title unbounded below tracks
	}
	for _, tc := range cases {
		if got := tc.cond.Satisfied(tc.elem, disc); got != tc.want {
			t.Errorf("%s(%s) = %v, want %v", tc.cond, tc.elem.Path, got, tc.want)
		}
	}
}

func TestConditionsOnAncestorAxis(t *testing.T) {
	s, _ := discAnchor(t)
	trackTitle := s.ElementAt("/freedb/disc/tracks/title")
	disc := s.ElementAt("/freedb/disc")
	tracks := s.ElementAt("/freedb/disc/tracks")
	// tracks/title is mandatory within tracks, and tracks within disc, so
	// from the anchor tracks/title both ancestors satisfy cme.
	if !Mandatory().Satisfied(tracks, trackTitle) {
		t.Error("tracks should satisfy cme from tracks/title")
	}
	if !Mandatory().Satisfied(disc, trackTitle) {
		t.Error("disc should satisfy cme from tracks/title")
	}
	// ancestors are always singleton relative to the anchor
	if !Singleton().Satisfied(disc, trackTitle) {
		t.Error("ancestor should satisfy cse")
	}
	// genre is optional: from genre's perspective, its parent disc fails
	// cme because genre is not mandatory to disc.
	genre := s.ElementAt("/freedb/disc/genre")
	if Mandatory().Satisfied(disc, genre) {
		t.Error("disc should fail cme from optional genre")
	}
}

func TestCondCombinators(t *testing.T) {
	s, disc := discAnchor(t)
	did := s.ElementAt("/freedb/disc/did")
	year := s.ElementAt("/freedb/disc/year")
	and := CondAnd(StringDataType(), Mandatory())
	if !and.Satisfied(did, disc) {
		t.Error("did should satisfy csdt∧cme")
	}
	if and.Satisfied(year, disc) {
		t.Error("year should fail csdt∧cme")
	}
}

func TestHeuristicCombinators(t *testing.T) {
	_, disc := discAnchor(t)
	h1 := KClosestDescendants(3) // did, artist, title
	h2 := RDistantDescendants(1) // all 7 children
	union := paths(disc, Or(h1, h2).Select(disc))
	if len(union) != 7 {
		t.Errorf("OR = %v", union)
	}
	// union deduplicates
	dup := paths(disc, Or(h1, h1).Select(disc))
	if !reflect.DeepEqual(dup, []string{"./did", "./artist", "./title"}) {
		t.Errorf("OR self = %v", dup)
	}
}

func TestFilteredSelection(t *testing.T) {
	_, disc := discAnchor(t)
	// All direct children of string type with text: Conditions csdt ∧ ccm.
	h := Filtered(RDistantDescendants(1), CondAnd(StringDataType(), ContentModel()))
	got := paths(disc, h.Select(disc))
	want := []string{"./did", "./artist", "./title", "./genre", "./cdextra"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("filtered = %v", got)
	}
}

// TestExperimentSelections verifies the per-experiment element sets on
// Dataset 1's schema that explain the Fig. 5 curves (Sec. 6.2).
func TestExperimentSelections(t *testing.T) {
	_, disc := discAnchor(t)
	base := KClosestDescendants(8) // all elements of Table 5
	want := map[int][]string{
		1: {"./did", "./artist", "./title", "./genre", "./year", "./cdextra", "./tracks", "./tracks/title"},
		2: {"./did", "./artist", "./title", "./genre", "./cdextra", "./tracks/title"}, // strings only
		3: {"./did", "./artist", "./title", "./year", "./tracks", "./tracks/title"},   // mandatory only
		4: {"./did", "./genre", "./year", "./tracks"},                                 // singletons only
		5: {"./did", "./artist", "./title", "./tracks/title"},                         // string ∧ mandatory
		6: {"./did", "./genre", "./cdextra"},                                          // string ∧ singleton... cdextra not SE!
		7: {"./did", "./year", "./tracks"},                                            // mandatory ∧ singleton
		8: {"./did"},                                                                  // all three
	}
	// fix exp6: cdextra has maxOccurs unbounded, so it is NOT a singleton.
	want[6] = []string{"./did", "./genre"}
	for n := 1; n <= ExperimentCount; n++ {
		h, err := Experiment(n, base)
		if err != nil {
			t.Fatal(err)
		}
		got := paths(disc, h.Select(disc))
		if !reflect.DeepEqual(got, want[n]) {
			t.Errorf("exp%d = %v, want %v", n, got, want[n])
		}
	}
	if _, err := Experiment(0, base); err == nil {
		t.Error("experiment 0 should error")
	}
	if _, err := Experiment(9, base); err == nil {
		t.Error("experiment 9 should error")
	}
}

func TestExperimentNames(t *testing.T) {
	if got := ExperimentName(1); got != "h" {
		t.Errorf("name 1 = %q", got)
	}
	if got := ExperimentName(8); got != "h[csdt ∧ cse ∧ cme]" {
		t.Errorf("name 8 = %q", got)
	}
	if got := ExperimentName(42); got != "exp42" {
		t.Errorf("name 42 = %q", got)
	}
}

func TestRelPathUnrelated(t *testing.T) {
	s, _ := discAnchor(t)
	did := s.ElementAt("/freedb/disc/did")
	year := s.ElementAt("/freedb/disc/year")
	// siblings are neither ancestors nor descendants: absolute path
	if got := RelPath(did, year); got != "/freedb/disc/year" {
		t.Errorf("unrelated RelPath = %q", got)
	}
	if got := RelPath(did, did); got != "." {
		t.Errorf("self RelPath = %q", got)
	}
}
