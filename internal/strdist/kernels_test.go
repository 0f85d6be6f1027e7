package strdist

import (
	"strings"
	"testing"
)

// textbookLevenshtein is the full-matrix dynamic program, kept here as
// the reference the optimized kernels are differenced against.
func textbookLevenshtein(a, b []rune) int {
	d := make([][]int, len(a)+1)
	for i := range d {
		d[i] = make([]int, len(b)+1)
		d[i][0] = i
	}
	for j := range d[0] {
		d[0][j] = j
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d[i][j] = min(d[i-1][j]+1, d[i][j-1]+1, d[i-1][j-1]+cost)
		}
	}
	return d[len(a)][len(b)]
}

// textbookBag is the multiset difference counted rune by rune.
func textbookBag(a, b []rune) int {
	counts := map[rune]int{}
	for _, r := range a {
		counts[r]++
	}
	for _, r := range b {
		counts[r]--
	}
	pos, neg := 0, 0
	for _, c := range counts {
		if c > 0 {
			pos += c
		} else {
			neg -= c
		}
	}
	return max(pos, neg)
}

// FuzzEditKernels differences every edit-distance kernel against the
// textbook programs above. The seeds cover the branches the kernels
// select by input: empty strings, ASCII, the multi-byte umlauts of the
// FilmDienst corpus, runes past Latin-1, invalid UTF-8, values past the
// 64-rune stack and bit-vector limits, and budgets 0, 1, 2.
func FuzzEditKernels(f *testing.F) {
	long := strings.Repeat("Die unendliche Geschichte ", 3) // 78 runes
	for _, seed := range []struct {
		a, b string
		max  uint8
	}{
		{"", "", 0},
		{"", "abc", 1},
		{"kitten", "sitting", 2},
		{"The Matrix Reloaded", "The Matrlx Reloadad", 2},
		{"Das Mädchen Rosemarie", "Das Madchen Rosemarie", 1},
		{"Überfall in Köln", "Uberfall in Koeln", 2},
		{"Ärger", "Ärger", 0},
		{"日本語のタイトル", "日本語タイトル", 1},
		{"\xff\xfeabc", "abc", 2},
		{long, long + "x", 1},
		{long, strings.ToUpper(long), 2},
		{strings.Repeat("a", 64), strings.Repeat("a", 63) + "b", 1},
		{strings.Repeat("ab", 40), strings.Repeat("ba", 40), 2},
		{"1999", "2004", 0},
		// 100 runes against 45 at distance 55: ned rounds onto θ = 0.55.
		{strings.Repeat("ab", 50), strings.Repeat("a", 45), 1},
	} {
		f.Add(seed.a, seed.b, seed.max)
	}
	thetas := []float64{0.1, 0.15, 0.3, 0.55}
	f.Fuzz(func(t *testing.T, a, b string, mx uint8) {
		if len(a) > 300 || len(b) > 300 {
			t.Skip()
		}
		ra, rb := []rune(a), []rune(b)
		want := textbookLevenshtein(ra, rb)
		if got := Levenshtein(a, b); got != want {
			t.Fatalf("Levenshtein(%q, %q) = %d, want %d", a, b, got, want)
		}
		var p Pattern
		p.Set(ra)
		if got := p.Distance(rb); got != want {
			t.Fatalf("Pattern(%q).Distance(%q) = %d, want %d", a, b, got, want)
		}
		p.Set(rb) // reuse: the previous pattern's masks must be gone
		if got := p.Distance(ra); got != want {
			t.Fatalf("reused Pattern(%q).Distance(%q) = %d, want %d", b, a, got, want)
		}
		maxDist := int(mx % 4)
		got, ok := LevenshteinBounded(a, b, maxDist)
		if within := want <= maxDist; ok != within || (within && got != want) || (!within && got != maxDist+1) {
			t.Fatalf("LevenshteinBounded(%q, %q, %d) = %d, %v; distance is %d", a, b, maxDist, got, ok, want)
		}
		bag := textbookBag(ra, rb)
		if got := BagDistance(a, b); got != bag {
			t.Fatalf("BagDistance(%q, %q) = %d, want %d", a, b, got, bag)
		}
		if sb := SignatureBound(Signature(ra), Signature(rb)); sb > bag {
			t.Fatalf("SignatureBound(%q, %q) = %d exceeds the bag distance %d", a, b, sb, bag)
		}
		// NormalizedBelow decides by the strict edit budget of θ — the
		// same budget the neighborhood index tiers and routing filters are
		// sized by — and that budget is the quotient rule ned < θ, also
		// where lev/m rounds onto θ itself (θ = 0.55 at m = 100).
		m := max(len(ra), len(rb))
		ned := Normalized(a, b)
		for _, theta := range thetas {
			got := NormalizedBelow(a, b, theta)
			if byBudget := m == 0 || want <= MaxEditsBelow(theta, m); got != byBudget {
				t.Fatalf("NormalizedBelow(%q, %q, %v) = %v; distance %d, budget %d", a, b, theta, got, want, MaxEditsBelow(theta, m))
			}
			if got != (ned < theta) {
				t.Fatalf("NormalizedBelow(%q, %q, %v) = %v, Normalized = %v", a, b, theta, got, ned)
			}
		}
	})
}

// The kernels run on the stack up to 64 runes a side: the pipeline's
// inner loops call them millions of times a run.
func TestKernelsAllocationFree(t *testing.T) {
	a := strings.Repeat("Mädchen ", 8)       // 64 runes, multi-byte
	b := strings.Repeat("Madchen ", 7) + "x" // 57 runes
	wide := "日本語のタイトル"
	ra, rb := []rune(a), []rune(b)
	var p Pattern
	for name, fn := range map[string]func(){
		"Levenshtein":        func() { Levenshtein(a, b) },
		"LevenshteinBounded": func() { LevenshteinBounded(a, b, 2); LevenshteinBounded(a, a, 2) },
		"BagDistance":        func() { BagDistance(a, b); BagDistance(wide, a) },
		"Normalized":         func() { Normalized(a, b) },
		"NormalizedBelow":    func() { NormalizedBelow(a, b, 0.15); NormalizedBelow(a, a[:len(a)-1], 0.15) },
		"LengthLowerBound":   func() { LengthLowerBound(a, b) },
		"Pattern":            func() { p.Set(ra); p.Distance(rb) },
	} {
		if n := testing.AllocsPerRun(20, fn); n != 0 {
			t.Errorf("%s allocates %v times on <= 64-rune inputs", name, n)
		}
	}
}

func TestDeletionVariants(t *testing.T) {
	for _, tc := range []struct {
		s    string
		max  int
		want []string
	}{
		{"ab", 0, []string{"ab"}},
		{"ab", 1, []string{"a", "ab", "b"}},
		{"aab", 2, []string{"a", "aa", "aab", "ab", "b"}},
		{"abab", 2, []string{"aa", "aab", "ab", "aba", "abab", "abb", "ba", "bab", "bb"}},
		{"äb", 1, []string{"b", "ä", "äb"}},
		{"\xffa", 1, []string{"a", "�", "�a"}}, // invalid bytes normalize like []rune
		{"", 2, []string{""}},
	} {
		got := DeletionVariants(tc.s, tc.max)
		if strings.Join(got, "|") != strings.Join(tc.want, "|") {
			t.Errorf("DeletionVariants(%q, %d) = %q, want %q", tc.s, tc.max, got, tc.want)
		}
	}
}

var kernelSink int

func BenchmarkKernels(b *testing.B) {
	x, y := "The Matrix Reloaded", "The Matrlx Reloadad"
	far := "Completely Different Title"
	rx, ry := []rune(x), []rune(far)
	b.Run("Levenshtein", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kernelSink = Levenshtein(x, far)
		}
	})
	b.Run("PatternDistance", func(b *testing.B) {
		b.ReportAllocs()
		var p Pattern
		p.Set(rx)
		for i := 0; i < b.N; i++ {
			kernelSink = p.Distance(ry)
		}
	})
	b.Run("LevenshteinBounded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kernelSink, _ = LevenshteinBounded(x, y, 2)
		}
	})
	b.Run("BagDistance", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kernelSink = BagDistance(x, far)
		}
	})
	b.Run("NormalizedBelow/near", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NormalizedBelow(x, y, 0.15)
		}
	})
	b.Run("NormalizedBelow/far", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NormalizedBelow(x, far, 0.15)
		}
	})
	b.Run("DeletionVariants", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kernelSink = len(DeletionVariants(x, 2))
		}
	})
}

func BenchmarkNeighborIndexLookup(b *testing.B) {
	values := make([]string, 2000)
	for i := range values {
		values[i] = strings.Repeat(string(rune('a'+i%26)), 1+i%3) + " title " + strings.Repeat(string(rune('a'+i/26%26)), 2) + string(rune('a'+i/676))
	}
	idx := NewNeighborIndex(values, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernelSink = len(idx.Lookup(values[i%len(values)], -1))
	}
}
