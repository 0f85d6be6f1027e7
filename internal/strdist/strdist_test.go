package strdist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLevenshteinKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"The Matrix", "Matrix", 4},
		{"Boston", "New York", 7},    // paper Sec. 5.1: 7/8
		{"Boston", "Los Angeles", 8}, // paper Sec. 5.1: 8/11
		{"gumbo", "gambol", 2},
		{"identical", "identical", 0},
		{"äöü", "aou", 3},
		{"ab", "ba", 2},
	}
	for _, tc := range cases {
		if got := Levenshtein(tc.a, tc.b); got != tc.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestPaperCityDistances(t *testing.T) {
	// Section 5.1: odtDist(Boston, Los Angeles) = 8/11 and
	// odtDist(Boston, New York) = 7/8.
	if got := Normalized("Boston", "Los Angeles"); !approxEqual(got, 8.0/11) {
		t.Errorf("ned(Boston, Los Angeles) = %v, want %v", got, 8.0/11)
	}
	if got := Normalized("Boston", "New York"); !approxEqual(got, 7.0/8) {
		t.Errorf("ned(Boston, New York) = %v, want %v", got, 7.0/8)
	}
}

func TestLevenshteinBounded(t *testing.T) {
	cases := []struct {
		a, b    string
		maxDist int
		want    int
		ok      bool
	}{
		{"kitten", "sitting", 3, 3, true},
		{"kitten", "sitting", 2, 3, false},
		{"abc", "abc", 0, 0, true},
		{"abc", "abd", 0, 1, false},
		{"abc", "abd", 1, 1, true},
		{"", "xyz", 2, 3, false},
		{"", "xyz", 3, 3, true},
		{"longstringhere", "x", 2, 3, false},
	}
	for _, tc := range cases {
		got, ok := LevenshteinBounded(tc.a, tc.b, tc.maxDist)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("LevenshteinBounded(%q,%q,%d) = %d,%v want %d,%v",
				tc.a, tc.b, tc.maxDist, got, ok, tc.want, tc.ok)
		}
	}
}

func TestNormalizedRangeAndEmpty(t *testing.T) {
	if got := Normalized("", ""); got != 0 {
		t.Errorf("ned of empties = %v", got)
	}
	if got := Normalized("", "abc"); got != 1 {
		t.Errorf("ned(\"\",abc) = %v", got)
	}
	if got := Normalized("same", "same"); got != 0 {
		t.Errorf("ned same = %v", got)
	}
}

func TestNormalizedBelow(t *testing.T) {
	theta := 0.15
	cases := []struct {
		a, b string
		want bool
	}{
		{"0a1b2c3d", "0a1b2c3e", true},  // 1/8 = 0.125 < 0.15
		{"0a1b2c3d", "0a1b2c44", false}, // 2/8 = 0.25
		{"identical", "identical", true},
		{"", "", true},
		{"x", "", false}, // ned=1
		{"The Matrix", "The Matrlx", true},
	}
	for _, tc := range cases {
		if got := NormalizedBelow(tc.a, tc.b, theta); got != tc.want {
			t.Errorf("NormalizedBelow(%q,%q,%v) = %v, want %v (ned=%v)",
				tc.a, tc.b, theta, got, tc.want, Normalized(tc.a, tc.b))
		}
	}
}

func TestMaxEditsBelow(t *testing.T) {
	// strictly-below semantics: lev/m < theta
	cases := []struct {
		theta float64
		m     int
		want  int
	}{
		{0.15, 8, 1},    // 1.2 -> 1
		{0.15, 6, 0},    // 0.9 -> 0
		{0.15, 20, 2},   // 3.0 -> 2 (strict)
		{0.5, 4, 1},     // 2.0 -> 1 (strict)
		{0.15, 40, 5},   // 6.0 -> 5
		{0.05, 10, -1},  // 0.5 -> no edit allowedexact-only: budget 0 means lev 0 < 0.5 ok => 0
		{0.55, 100, 54}, // 0.55*100 rounds above 55, but 55/100 is not below 0.55
	}
	// fix the θ = 0.05 case: 0 < 0.5, so budget is 0
	cases[5].want = 0
	for _, tc := range cases {
		if got := MaxEditsBelow(tc.theta, tc.m); got != tc.want {
			t.Errorf("MaxEditsBelow(%v,%d) = %d, want %d", tc.theta, tc.m, got, tc.want)
		}
	}
}

func TestBagDistanceKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"abc", "abc", 0},
		{"abc", "acb", 0}, // bag ignores order
		{"abc", "abd", 1},
		{"aaa", "a", 2},
		{"", "xy", 2},
	}
	for _, tc := range cases {
		if got := BagDistance(tc.a, tc.b); got != tc.want {
			t.Errorf("BagDistance(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestJaroWinklerKnown(t *testing.T) {
	if got := Jaro("", ""); got != 1 {
		t.Errorf("Jaro empty = %v", got)
	}
	if got := Jaro("abc", ""); got != 0 {
		t.Errorf("Jaro vs empty = %v", got)
	}
	if got := Jaro("martha", "marhta"); !approxEqual(got, 0.944444) {
		t.Errorf("Jaro(martha,marhta) = %v", got)
	}
	if got := JaroWinkler("martha", "marhta"); !approxEqual(got, 0.961111) {
		t.Errorf("JaroWinkler(martha,marhta) = %v", got)
	}
	if got := JaroWinkler("same", "same"); got != 1 {
		t.Errorf("JaroWinkler same = %v", got)
	}
}

func TestQGramJaccard(t *testing.T) {
	if got := QGramJaccard("", "", 2); got != 1 {
		t.Errorf("empty qgram = %v", got)
	}
	if got := QGramJaccard("abc", "abc", 2); got != 1 {
		t.Errorf("identical qgram = %v", got)
	}
	if got := QGramJaccard("abc", "xyz", 2); got != 0 {
		t.Errorf("disjoint qgram = %v", got)
	}
	mid := QGramJaccard("night", "nacht", 2)
	if mid <= 0 || mid >= 1 {
		t.Errorf("night/nacht qgram = %v, want in (0,1)", mid)
	}
}

func TestTokenCosine(t *testing.T) {
	if got := TokenCosine("the matrix", "Matrix, The"); !approxEqual(got, 1) {
		t.Errorf("token cosine reordered = %v", got)
	}
	if got := TokenCosine("alpha beta", "gamma delta"); got != 0 {
		t.Errorf("disjoint cosine = %v", got)
	}
	if got := TokenCosine("", ""); got != 1 {
		t.Errorf("empty cosine = %v", got)
	}
}

func TestSortedTokens(t *testing.T) {
	if got := SortedTokens("The Matrix, Reloaded"); got != "matrix reloaded the" {
		t.Errorf("SortedTokens = %q", got)
	}
	if got := SortedTokens(""); got != "" {
		t.Errorf("SortedTokens empty = %q", got)
	}
}

func TestNeighborIndexBasic(t *testing.T) {
	values := []string{"0001", "0002", "0011", "9999", "0001"}
	idx := NewNeighborIndex(values, 1)
	got := idx.Lookup("0001", 0)
	want := map[int32]bool{1: true, 2: true, 4: true}
	if len(got) != len(want) {
		t.Fatalf("Lookup = %v, want keys %v", got, want)
	}
	for _, g := range got {
		if !want[g] {
			t.Errorf("unexpected neighbor index %d", g)
		}
	}
	if res := idx.Lookup("zzzz", -1); len(res) != 0 {
		t.Errorf("far query returned %v", res)
	}
}

func TestNeighborIndexTwoEdits(t *testing.T) {
	values := []string{"abcdef", "abXdYf", "abcdeX", "zzzzzz"}
	idx := NewNeighborIndex(values, 2)
	got := idx.Lookup("abcdef", 0)
	found := map[int32]bool{}
	for _, g := range got {
		found[g] = true
	}
	if !found[1] || !found[2] || found[3] {
		t.Errorf("Lookup(2 edits) = %v", got)
	}
}

func TestNeighborIndexZeroEdits(t *testing.T) {
	values := []string{"a", "b", "a"}
	idx := NewNeighborIndex(values, 0)
	got := idx.Lookup("a", 0)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("Lookup(0 edits) = %v, want [2]", got)
	}
}

// Property: Levenshtein is symmetric, non-negative, zero iff equal, and
// satisfies the triangle inequality.
func TestQuickLevenshteinMetric(t *testing.T) {
	f := func(a, b, c string) bool {
		a, b, c = clip(a), clip(b), clip(c)
		dab := Levenshtein(a, b)
		dba := Levenshtein(b, a)
		dac := Levenshtein(a, c)
		dcb := Levenshtein(c, b)
		if dab != dba || dab < 0 {
			return false
		}
		if (dab == 0) != (a == b) {
			return false
		}
		return dab <= dac+dcb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: lower bounds sandwich: lenDiff <= bag <= lev <= maxLen.
func TestQuickBoundsSandwich(t *testing.T) {
	f := func(a, b string) bool {
		a, b = clip(a), clip(b)
		lev := Levenshtein(a, b)
		bag := BagDistance(a, b)
		ld := LengthLowerBound(a, b)
		ra, rb := len([]rune(a)), len([]rune(b))
		m := ra
		if rb > m {
			m = rb
		}
		return ld <= bag && bag <= lev && lev <= m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: bounded Levenshtein agrees with the full computation.
func TestQuickBoundedAgrees(t *testing.T) {
	f := func(a, b string, mx uint8) bool {
		a, b = clip(a), clip(b)
		maxDist := int(mx % 8)
		full := Levenshtein(a, b)
		got, ok := LevenshteinBounded(a, b, maxDist)
		if full <= maxDist {
			return ok && got == full
		}
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Normalized is in [0,1] and NormalizedBelow agrees with it.
func TestQuickNormalizedBelowAgrees(t *testing.T) {
	thetas := []float64{0.1, 0.15, 0.3, 0.55, 0.9}
	f := func(a, b string, ti uint8) bool {
		a, b = clip(a), clip(b)
		theta := thetas[int(ti)%len(thetas)]
		ned := Normalized(a, b)
		if ned < 0 || ned > 1 {
			return false
		}
		return NormalizedBelow(a, b, theta) == (ned < theta)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: NeighborIndex(1) finds exactly the strings within 1 edit.
func TestQuickNeighborIndexComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		values := make([]string, 30)
		for i := range values {
			values[i] = randWord(rng)
		}
		idx := NewNeighborIndex(values, 1)
		q := values[rng.Intn(len(values))]
		got := map[int32]bool{}
		for _, g := range idx.Lookup(q, -1) {
			got[g] = true
		}
		for i, v := range values {
			want := Levenshtein(q, v) <= 1
			if got[int32(i)] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func randWord(rng *rand.Rand) string {
	letters := "abcd"
	n := rng.Intn(6) + 1
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

func clip(s string) string {
	r := []rune(s)
	if len(r) > 24 {
		r = r[:24]
	}
	return string(r)
}

func approxEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-4
}

func BenchmarkLevenshtein(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Levenshtein("The Matrix Reloaded", "The Matrlx Reloadad")
	}
}

func BenchmarkNormalizedBelowFiltered(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NormalizedBelow("The Matrix Reloaded", "Completely Different Title", 0.15)
	}
}
