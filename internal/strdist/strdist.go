// Package strdist implements the string distance machinery DogmatiX builds
// on: Levenshtein edit distance with a banded, early-terminating variant,
// the normalized edit distance "ned" of Definition 7, and the cheap lower
// bounds (length difference and bag distance) that Weis & Naumann introduced
// in their 2004 workshop paper [18] to avoid full edit distance
// computations. It also ships a deletion-neighborhood index for fast
// "within d edits" candidate lookup, and a handful of classic similarity
// measures (Jaro, Jaro-Winkler, q-grams, token cosine) used by the baseline
// comparators.
//
// All functions operate on runes, not bytes, so non-ASCII data (the
// FilmDienst German corpus) is measured correctly.
package strdist

import (
	"math"
	"math/bits"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// stackRunes is the rune length up to which the kernels below run
// entirely on the caller's stack: decoded runes and DP rows live in
// fixed-size arrays, so inputs this short never touch the heap. Longer
// inputs fall back to one make per buffer.
const stackRunes = 64

// AppendRunes appends the runes of s to dst, decoding exactly like
// []rune(s) (one U+FFFD per invalid byte). Callers that compare one
// value against many decode it once and use the *Runes kernels.
func AppendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// AppendRuneBytes is AppendRunes over a byte view, for callers that
// compare a value where it is stored before deciding to copy it.
func AppendRuneBytes(dst []rune, b []byte) []rune {
	for len(b) > 0 {
		r, n := rune(b[0]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(b)
		}
		dst = append(dst, r)
		b = b[n:]
	}
	return dst
}

// Levenshtein returns the edit distance (insertions, deletions,
// substitutions, unit cost) between a and b.
func Levenshtein(a, b string) int {
	var sa, sb [stackRunes]rune
	return LevenshteinRunes(AppendRunes(sa[:0], a), AppendRunes(sb[:0], b))
}

// trimCommon strips the longest common prefix and suffix of ra and rb.
// Edit distance is invariant under it, and near-duplicate values — the
// common case on the similar side — shrink to the few runes that differ.
func trimCommon(ra, rb []rune) ([]rune, []rune) {
	for len(ra) > 0 && len(rb) > 0 && ra[0] == rb[0] {
		ra, rb = ra[1:], rb[1:]
	}
	for len(ra) > 0 && len(rb) > 0 && ra[len(ra)-1] == rb[len(rb)-1] {
		ra, rb = ra[:len(ra)-1], rb[:len(rb)-1]
	}
	return ra, rb
}

// LevenshteinRunes is Levenshtein over pre-decoded runes. It allocates
// nothing when the shorter input has at most 64 runes.
func LevenshteinRunes(ra, rb []rune) int {
	ra, rb = trimCommon(ra, rb)
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(rb) == 0 {
		return len(ra)
	}
	// One DP row over the shorter string; diag carries row[j-1] of the
	// previous row.
	var stack [stackRunes + 1]int
	row := stack[:]
	if len(rb) >= len(row) {
		row = make([]int, len(rb)+1)
	}
	row = row[:len(rb)+1]
	for j := range row {
		row[j] = j
	}
	for i, ca := range ra {
		diag := row[0]
		row[0] = i + 1
		left := i + 1
		for j, cb := range rb {
			up := row[j+1]
			v := diag
			if ca != cb {
				v = min(diag, up, left) + 1
			}
			row[j+1] = v
			diag, left = up, v
		}
	}
	return row[len(rb)]
}

// LevenshteinBounded returns the edit distance between a and b if it is
// <= maxDist, and (maxDist+1, false) otherwise. It uses a diagonal band of
// width 2*maxDist+1 and early termination, so the cost is O(maxDist *
// min(len)) rather than O(len(a)*len(b)).
func LevenshteinBounded(a, b string, maxDist int) (int, bool) {
	var sa, sb [stackRunes]rune
	return LevenshteinBoundedRunes(AppendRunes(sa[:0], a), AppendRunes(sb[:0], b), maxDist)
}

// LevenshteinBoundedRunes is LevenshteinBounded over pre-decoded runes.
// It allocates nothing when the shorter input has at most 64 runes.
func LevenshteinBoundedRunes(ra, rb []rune, maxDist int) (int, bool) {
	if maxDist < 0 {
		return 0, false
	}
	if Abs(len(ra)-len(rb)) > maxDist {
		return maxDist + 1, false
	}
	ra, rb = trimCommon(ra, rb)
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(rb) == 0 {
		return len(ra), true // the length gate above bounds it by maxDist
	}
	// prev/cur are full-width rows but only the band is computed.
	const inf = 1 << 29
	var stackPrev, stackCur [stackRunes + 1]int
	prev, cur := stackPrev[:], stackCur[:]
	if len(rb) >= len(prev) {
		prev, cur = make([]int, len(rb)+1), make([]int, len(rb)+1)
	}
	prev, cur = prev[:len(rb)+1], cur[:len(rb)+1]
	for j := range prev {
		if j <= maxDist {
			prev[j] = j
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= len(ra); i++ {
		lo := max(1, i-maxDist)
		hi := min(len(rb), i+maxDist)
		if lo > 1 {
			cur[lo-1] = inf
		}
		if i <= maxDist {
			cur[0] = i
		} else {
			cur[0] = inf
		}
		rowMin := cur[0]
		ca := ra[i-1]
		for j := lo; j <= hi; j++ {
			v := prev[j-1]
			if ca != rb[j-1] {
				v++
			}
			if prev[j]+1 < v {
				v = prev[j] + 1
			}
			if cur[j-1]+1 < v {
				v = cur[j-1] + 1
			}
			cur[j] = v
			if v < rowMin {
				rowMin = v
			}
		}
		if hi < len(rb) {
			cur[hi+1] = inf
		}
		if rowMin > maxDist {
			return maxDist + 1, false
		}
		prev, cur = cur, prev
	}
	d := prev[len(rb)]
	if d > maxDist {
		return maxDist + 1, false
	}
	return d, true
}

// Normalized returns the edit distance between a and b normalized by the
// length (in runes) of the longer string, as in Definition 7 of the paper.
// Two empty strings have distance 0.
func Normalized(a, b string) float64 {
	var sa, sb [stackRunes]rune
	return NormalizedRunes(AppendRunes(sa[:0], a), AppendRunes(sb[:0], b))
}

// NormalizedRunes is Normalized over pre-decoded runes.
func NormalizedRunes(ra, rb []rune) float64 {
	m := max(len(ra), len(rb))
	if m == 0 {
		return 0
	}
	return float64(LevenshteinRunes(ra, rb)) / float64(m)
}

// NormalizedBelow reports whether ned(a,b) < theta, computing at most the
// bounded edit distance implied by theta. It applies the length-difference
// lower bound and a relaxation of the bag-distance lower bound (see
// SignatureBound) first, so most non-matches never reach the DP. This is
// the comparison-reduction trick of [18]. The decision is lev <=
// MaxEditsBelow(theta, m), the budget the index tiers are sized by,
// which is the quotient comparison float64(lev)/float64(m) < theta
// exactly.
func NormalizedBelow(a, b string, theta float64) bool {
	var sa, sb [stackRunes]rune
	return NormalizedBelowRunes(AppendRunes(sa[:0], a), AppendRunes(sb[:0], b), theta)
}

// NormalizedBelowRunes is NormalizedBelow over pre-decoded runes.
func NormalizedBelowRunes(ra, rb []rune, theta float64) bool {
	return NormalizedBelowSig(ra, rb, Signature(ra), Signature(rb), theta)
}

// NormalizedBelowSig is NormalizedBelowRunes for callers that keep each
// value's Signature next to its runes: comparing one query against many
// stored values then costs no pass over either string before the DP.
func NormalizedBelowSig(ra, rb []rune, sigA, sigB uint64, theta float64) bool {
	m := max(len(ra), len(rb))
	if m == 0 {
		return 0 < theta // ned = 0
	}
	maxDist := MaxEditsBelow(theta, m)
	if maxDist < 0 {
		return false
	}
	if Abs(len(ra)-len(rb)) > maxDist {
		return false
	}
	if SignatureBound(sigA, sigB) > maxDist {
		return false
	}
	_, ok := LevenshteinBoundedRunes(ra, rb, maxDist)
	return ok
}

// Signature folds the set of runes of a string into 64 bits, one per
// residue of the code point. Callers comparing one value against many
// keep it next to the decoded runes.
func Signature(runes []rune) uint64 {
	var sig uint64
	for _, r := range runes {
		sig |= 1 << (uint32(r) & 63)
	}
	return sig
}

// SignatureBound returns a lower bound on the edit distance between two
// strings from their signatures: a bit set on one side only stands for a
// rune the other string has no equal of, which costs an edit. It never
// exceeds the bag distance — folding runes together and counting each
// once can only lose differences — but costs two popcounts where the bag
// distance counts every rune, which on the similar-value scans is more
// than the banded DP it is meant to save.
func SignatureBound(a, b uint64) int {
	return max(bits.OnesCount64(a&^b), bits.OnesCount64(b&^a))
}

// MaxEditsBelow returns the strict edit budget of strings of maximum
// rune length m: the largest d with float64(d)/float64(m) < theta — the
// paper's ned < θtuple, decided by the same quotient the matcher
// compares — or -1 when not even d = 0 qualifies. int(theta*m) is
// within one edit of it, so one correction step settles the rounding.
func MaxEditsBelow(theta float64, m int) int {
	if m <= 0 {
		return 0
	}
	d := int(theta * float64(m))
	if float64(d)/float64(m) >= theta {
		d--
	} else if float64(d+1)/float64(m) < theta {
		d++
	}
	return max(d, -1)
}

// LengthLowerBound returns |len(a)-len(b)|, a lower bound on Levenshtein.
func LengthLowerBound(a, b string) int {
	return Abs(utf8.RuneCountInString(a) - utf8.RuneCountInString(b))
}

// Jaro returns the Jaro similarity in [0,1].
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := max(0, i-window)
		hi := min(lb-1, i+window)
		for j := lo; j <= hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler returns the Jaro-Winkler similarity with the standard prefix
// scale 0.1 and max prefix length 4.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	ra, rb := []rune(a), []rune(b)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// QGramJaccard returns the Jaccard similarity of the q-gram sets of a and
// b. Strings shorter than q are padded with '#'.
func QGramJaccard(a, b string, q int) float64 {
	ga, gb := qgrams(a, q), qgrams(b, q)
	if len(ga) == 0 && len(gb) == 0 {
		return 1
	}
	inter := 0
	for g := range ga {
		if gb[g] {
			inter++
		}
	}
	union := len(ga) + len(gb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func qgrams(s string, q int) map[string]bool {
	if q <= 0 {
		q = 2
	}
	r := []rune(s)
	for len(r) < q && len(r) > 0 {
		r = append(r, '#')
	}
	out := map[string]bool{}
	for i := 0; i+q <= len(r); i++ {
		out[string(r[i:i+q])] = true
	}
	return out
}

// TokenCosine returns the cosine similarity of the whitespace token
// frequency vectors of a and b, lowercased.
func TokenCosine(a, b string) float64 {
	ta, tb := tokenCounts(a), tokenCounts(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	var dot, na, nb float64
	for tok, ca := range ta {
		na += float64(ca * ca)
		if cb, ok := tb[tok]; ok {
			dot += float64(ca * cb)
		}
	}
	for _, cb := range tb {
		nb += float64(cb * cb)
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func tokenCounts(s string) map[string]int {
	out := map[string]int{}
	for _, tok := range strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	}) {
		out[tok]++
	}
	return out
}

// SortedTokens returns the lowercased tokens of s in sorted order joined by
// spaces. Used by the sorted-neighborhood baseline to build sorting keys.
func SortedTokens(s string) string {
	toks := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	sort.Strings(toks)
	return strings.Join(toks, " ")
}

// Abs returns |x|. Exported because length-window pruning around edit
// budgets needs it in the index packages as well.
func Abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
