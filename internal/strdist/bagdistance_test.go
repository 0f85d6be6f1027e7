package strdist

import "slices"

// BagDistance returns the bag (multiset) distance between a and b:
// max(|bag(a)-bag(b)|, |bag(b)-bag(a)|). It is a lower bound on the
// Levenshtein distance. The two rune bags are sorted and merged — every
// rune that finds an unclaimed equal on the other side is matched — on
// the stack up to 64 runes a side. The filter chain gates with the
// cheaper SignatureBound; this is the bound of [18] itself, kept as the
// reference the tests hold the edit distances against.
func BagDistance(a, b string) int {
	var sa, sb [stackRunes]rune
	ra, rb := AppendRunes(sa[:0], a), AppendRunes(sb[:0], b)
	slices.Sort(ra)
	slices.Sort(rb)
	matched := 0
	for i, j := 0, 0; i < len(ra) && j < len(rb); {
		switch {
		case ra[i] == rb[j]:
			matched++
			i++
			j++
		case ra[i] < rb[j]:
			i++
		default:
			j++
		}
	}
	return max(len(ra), len(rb)) - matched
}
