package strdist

import (
	"math/rand"
	"strings"
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

// TestMaxEditsBelowExhaustive checks the budget against its definition,
// the largest d with float64(d)/float64(m) < θ, for θ on a 0.01 grid and
// every m up to 300. Grid points like θ = 0.29, m = 100 land exactly on
// the boundary, where the correction step's strict comparison matters.
func TestMaxEditsBelowExhaustive(t *testing.T) {
	for i := 0; i <= 100; i++ {
		theta := float64(i) / 100
		for m := 1; m <= 300; m++ {
			want := -1
			for d := 0; d <= m; d++ {
				if float64(d)/float64(m) < theta {
					want = d
				}
			}
			if got := MaxEditsBelow(theta, m); got != want {
				t.Errorf("MaxEditsBelow(%v, %d) = %d, want %d", theta, m, got, want)
			}
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
		ra, rb := len([]rune(a)), len([]rune(b))
		ld := Abs(ra - rb)
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

// Property: at every budget, Candidates holds every value within the
// budget of the query and Lookup exactly those, with multi-byte runes
// and invalid UTF-8 (decoded to U+FFFD, as []rune does) among the
// values; the reference is a brute-force LevenshteinBoundedRunes.
func TestQuickNeighborIndexComplete(t *testing.T) {
	for budget := 0; budget <= 2; budget++ {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			values := make([]string, 30)
			for i := range values {
				values[i] = randWord(rng)
			}
			idx := NewNeighborIndex(values, budget)
			q := values[rng.Intn(len(values))]
			if rng.Intn(3) == 0 {
				q = randWord(rng) // a query that may be indexed nowhere
			}
			cands := map[int32]bool{}
			for _, c := range idx.Candidates(nil, q) {
				cands[c] = true
			}
			got := map[int32]bool{}
			for _, g := range idx.Lookup(q, -1) {
				got[g] = true
			}
			for i, v := range values {
				_, want := LevenshteinBoundedRunes([]rune(q), []rune(v), budget)
				if want && !cands[int32(i)] || got[int32(i)] != want {
					t.Logf("budget %d, query %q, value %q: within %v, candidate %v, found %v",
						budget, q, v, want, cands[int32(i)], got[int32(i)])
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("budget %d: %v", budget, err)
		}
	}
}

// TestNeighborIndexBuildAllocs pins the flat build: a fixed number of
// slices however many values and deletion variants the index holds.
func TestNeighborIndexBuildAllocs(t *testing.T) {
	small, large := artistValues(50), artistValues(500)
	a50 := testing.AllocsPerRun(5, func() { NewNeighborIndex(small, 2) })
	a500 := testing.AllocsPerRun(5, func() { NewNeighborIndex(large, 2) })
	if a50 != a500 {
		t.Errorf("NewNeighborIndex allocates %v times for 50 values and %v for 500: want equal", a50, a500)
	}
}

// randWord draws 1–6 runes over a small alphabet of one-, two- and
// three-byte runes plus an invalid byte, so deletion variants collide
// often and cut through multi-byte sequences.
func randWord(rng *rand.Rand) string {
	letters := []string{"a", "b", "c", "ä", "€", "\xff"}
	n := rng.Intn(6) + 1
	var b strings.Builder
	for range n {
		b.WriteString(letters[rng.Intn(len(letters))])
	}
	return b.String()
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
