package od

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/strdist"
)

// buildStore assembles a small store with the paper's three movies
// (Table 2).
func buildStore(t *testing.T) *MemStore {
	t.Helper()
	s := NewMemStore()
	s.Add(&OD{Object: "/moviedoc/movie[1]", Tuples: []Tuple{
		{Value: "The Matrix", Name: "/moviedoc/movie/title", Type: "TITLE"},
		{Value: "1999", Name: "/moviedoc/movie/year", Type: "YEAR"},
		{Value: "Keanu Reeves", Name: "/moviedoc/movie/actor/name", Type: "ACTORNAME"},
		{Value: "L. Fishburne", Name: "/moviedoc/movie/actor/name", Type: "ACTORNAME"},
	}})
	s.Add(&OD{Object: "/moviedoc/movie[2]", Tuples: []Tuple{
		{Value: "Matrix", Name: "/moviedoc/movie/title", Type: "TITLE"},
		{Value: "1999", Name: "/moviedoc/movie/year", Type: "YEAR"},
		{Value: "Keanu Reeves", Name: "/moviedoc/movie/actor/name", Type: "ACTORNAME"},
	}})
	s.Add(&OD{Object: "/moviedoc/movie[3]", Tuples: []Tuple{
		{Value: "Signs", Name: "/moviedoc/movie/title", Type: "TITLE"},
		{Value: "2002", Name: "/moviedoc/movie/year", Type: "YEAR"},
		{Value: "Mel Gibson", Name: "/moviedoc/movie/actor/name", Type: "ACTORNAME"},
	}})
	s.Finalize(0.55)
	return s
}

func TestStoreBasics(t *testing.T) {
	s := buildStore(t)
	if s.Size() != 3 {
		t.Fatalf("size = %d", s.Size())
	}
	if s.ODs()[0].ID != 0 || s.ODs()[2].ID != 2 {
		t.Error("ids not assigned sequentially")
	}
	if s.Theta() != 0.55 {
		t.Errorf("theta = %v", s.Theta())
	}
}

func TestObjectsWithExact(t *testing.T) {
	s := buildStore(t)
	year := Tuple{Value: "1999", Name: "/moviedoc/movie/year", Type: "YEAR"}
	got := s.ObjectsWithExact(year)
	if !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Errorf("objects with 1999 = %v", got)
	}
	missing := Tuple{Value: "1984", Type: "YEAR"}
	if got := s.ObjectsWithExact(missing); got != nil {
		t.Errorf("missing value returned %v", got)
	}
	// same value under a different type is a different key
	other := Tuple{Value: "1999", Type: "TITLE"}
	if got := s.ObjectsWithExact(other); got != nil {
		t.Errorf("cross-type lookup returned %v", got)
	}
}

func TestObjectCountsOncePerKey(t *testing.T) {
	s := NewMemStore()
	s.Add(&OD{Tuples: []Tuple{
		{Value: "x", Type: "T"},
		{Value: "x", Type: "T"}, // duplicate tuple in one object
	}})
	s.Add(&OD{Tuples: []Tuple{{Value: "x", Type: "T"}}})
	s.Finalize(0.15)
	got := s.ObjectsWithExact(Tuple{Value: "x", Type: "T"})
	if !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Errorf("occurrences = %v, want [0 1]", got)
	}
}

func TestSimilarValues(t *testing.T) {
	s := buildStore(t)
	// With theta 0.55, "The Matrix" and "Matrix" are similar (ned = 0.4).
	got := s.SimilarValues(Tuple{Value: "The Matrix", Type: "TITLE"})
	var vals []string
	for _, m := range got {
		vals = append(vals, m.Value)
	}
	if !reflect.DeepEqual(vals, []string{"The Matrix", "Matrix"}) {
		t.Errorf("similar to The Matrix = %v", vals)
	}
	if got[0].Dist != 0 {
		t.Errorf("self distance = %v", got[0].Dist)
	}
	if math.Abs(got[1].Dist-0.4) > 1e-9 {
		t.Errorf("Matrix distance = %v, want 0.4", got[1].Dist)
	}
}

func TestSimilarValuesEmptyAndUnknownType(t *testing.T) {
	s := buildStore(t)
	if got := s.SimilarValues(Tuple{Value: "", Type: "TITLE"}); got != nil {
		t.Errorf("empty value matched %v", got)
	}
	if got := s.SimilarValues(Tuple{Value: "x", Type: "NOPE"}); got != nil {
		t.Errorf("unknown type matched %v", got)
	}
}

func TestSoftIDF(t *testing.T) {
	s := buildStore(t)
	year99 := Tuple{Value: "1999", Type: "YEAR"}
	// 1999 occurs in 2 of 3 objects: idf = ln(3/2)
	if got, want := s.SoftIDFSingle(year99), math.Log(1.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("softIDF(1999) = %v, want %v", got, want)
	}
	// pair (The Matrix, Matrix): occurs in objects {0} ∪ {1} -> ln(3/2)
	a := Tuple{Value: "The Matrix", Type: "TITLE"}
	b := Tuple{Value: "Matrix", Type: "TITLE"}
	if got, want := s.SoftIDF(a, b), math.Log(1.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("softIDF(pair) = %v, want %v", got, want)
	}
	// unique tuple: ln(3/1)
	uniq := Tuple{Value: "Signs", Type: "TITLE"}
	if got, want := s.SoftIDFSingle(uniq), math.Log(3); math.Abs(got-want) > 1e-12 {
		t.Errorf("softIDF(Signs) = %v, want %v", got, want)
	}
}

func TestSoftIDFPhantomTuple(t *testing.T) {
	s := buildStore(t)
	ghost := Tuple{Value: "never seen", Type: "TITLE"}
	got := s.SoftIDF(ghost, ghost)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("phantom softIDF = %v", got)
	}
	if want := math.Log(3); math.Abs(got-want) > 1e-12 {
		t.Errorf("phantom softIDF = %v, want %v", got, want)
	}
}

func TestNeighbors(t *testing.T) {
	s := buildStore(t)
	// movie 1 shares year with movie 2 and (with theta .55) title too.
	got := s.Neighbors(0)
	if !reflect.DeepEqual(got, []int32{1}) {
		t.Errorf("neighbors(0) = %v", got)
	}
	// movie 3 shares nothing similar.
	if got := s.Neighbors(2); len(got) != 0 {
		t.Errorf("neighbors(2) = %v", got)
	}
}

// neighborsOf reads back only the words of its pooled bitset that the
// call touched; a bit left behind would surface as a stranger in a later
// call's set. Visit the objects far-apart-first so consecutive windows
// differ, and compare with the plain union.
func TestNeighborsMatchPlainUnion(t *testing.T) {
	s := NewMemStore()
	for _, o := range cdODs(400, 31) {
		s.Add(o)
	}
	s.Finalize(0.15)
	n := int32(s.Size())
	for i := int32(0); i < n; i++ {
		id := i / 2
		if i%2 == 1 {
			id = n - 1 - i/2
		}
		seen := map[int32]bool{}
		for _, tu := range s.OD(id).NonEmptyTuples() {
			for _, m := range s.SimilarValues(tu) {
				for _, other := range m.Objects {
					if other != id {
						seen[other] = true
					}
				}
			}
		}
		var want []int32
		for other := int32(0); other < n; other++ {
			if seen[other] {
				want = append(want, other)
			}
		}
		if got := s.Neighbors(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("Neighbors(%d) = %v, want %v", id, got, want)
		}
	}
}

func TestNonEmptyTuples(t *testing.T) {
	o := &OD{Tuples: []Tuple{
		{Value: "x", Type: "T"},
		{Value: "", Type: "T"},
		{Value: "y", Type: "T"},
	}}
	got := o.NonEmptyTuples()
	if len(got) != 2 || got[0].Value != "x" || got[1].Value != "y" {
		t.Errorf("NonEmptyTuples = %v", got)
	}
}

func TestStatsAndIndexChoice(t *testing.T) {
	s := NewMemStore()
	// short values -> small budget -> neighbor index
	for _, v := range []string{"0001", "0002", "0003"} {
		s.Add(&OD{Tuples: []Tuple{{Value: v, Type: "ID"}}})
	}
	// long values -> budget > 2 -> scan fallback
	long1 := "this is a very long track title indeed, part one"
	long2 := "this is a very long track title indeed, part two"
	s.Add(&OD{Tuples: []Tuple{{Value: long1, Type: "LONG"}}})
	s.Add(&OD{Tuples: []Tuple{{Value: long2, Type: "LONG"}}})
	s.Finalize(0.15)

	stats := s.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats = %v", stats)
	}
	byType := map[string]TypeStats{}
	for _, st := range stats {
		byType[st.Type] = st
	}
	if !byType["ID"].Indexed {
		t.Error("ID type should use the neighbor index")
	}
	if byType["LONG"].Indexed {
		t.Error("LONG type should use the scan fallback")
	}
	// both paths find the similar pair
	got := s.SimilarValues(Tuple{Value: long1, Type: "LONG"})
	if len(got) != 2 {
		t.Errorf("scan path found %d matches, want 2 (self + other)", len(got))
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	s := NewMemStore()
	s.Add(&OD{})
	assertPanics("query before finalize", func() { s.ObjectsWithExact(Tuple{}) })
	s.Finalize(0.15)
	assertPanics("double finalize", func() { s.Finalize(0.15) })
	assertPanics("add after finalize", func() { s.Add(&OD{}) })
}

// Property: SimilarValues agrees with a brute-force scan over all distinct
// values, for both index paths.
func TestQuickSimilarValuesComplete(t *testing.T) {
	f := func(seed int64, thetaPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		thetas := []float64{0.15, 0.3, 0.55}
		theta := thetas[int(thetaPick)%len(thetas)]
		s := NewMemStore()
		var values []string
		for i := 0; i < 25; i++ {
			v := randValue(rng)
			values = append(values, v)
			s.Add(&OD{Tuples: []Tuple{{Value: v, Type: "T"}}})
		}
		s.Finalize(theta)
		q := Tuple{Value: values[rng.Intn(len(values))], Type: "T"}
		got := map[string]bool{}
		for _, m := range s.SimilarValues(q) {
			got[m.Value] = true
		}
		want := map[string]bool{}
		for _, v := range values {
			if strdist.NormalizedBelow(q.Value, v, theta) {
				want[v] = true
			}
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: union size is symmetric and bounded by the store size in
// softIDF (idf >= 0).
func TestQuickSoftIDFNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewMemStore()
		var tuples []Tuple
		for i := 0; i < 20; i++ {
			tp := Tuple{Value: randValue(rng), Type: "T"}
			tuples = append(tuples, tp)
			s.Add(&OD{Tuples: []Tuple{tp}})
		}
		s.Finalize(0.3)
		a := tuples[rng.Intn(len(tuples))]
		b := tuples[rng.Intn(len(tuples))]
		ab, ba := s.SoftIDF(a, b), s.SoftIDF(b, a)
		return ab >= 0 && math.Abs(ab-ba) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func randValue(rng *rand.Rand) string {
	letters := "abcxyz"
	n := rng.Intn(8) + 1
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}
