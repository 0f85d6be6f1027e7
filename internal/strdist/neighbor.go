package strdist

import (
	"slices"
	"unicode/utf8"
)

// NeighborIndex answers "which of the indexed strings are within d edits of
// this query?" for a small, fixed edit budget d (0, 1 or 2). It hashes the
// deletion neighborhood of each string: every variant obtained by deleting
// up to d runes. Two strings within edit distance d always share at least
// one common deletion variant (the FastSS observation), so variant-bucket
// collisions are a complete candidate set; candidates are then verified
// with the banded edit distance.
//
// For budgets above 2 the neighborhood explodes combinatorially, so callers
// should fall back to a scan with NormalizedBelow (the experiments package
// does this for long track titles).
type NeighborIndex struct {
	maxEdits int
	// keys maps a deletion variant to its bucket; buckets hold ascending
	// value indices. Two levels, so that probing and filling an existing
	// bucket look the variant up by its bytes without building a string.
	keys    map[string]int32
	buckets [][]int32
	values  []string
}

// NewNeighborIndex builds an index over values with the given edit budget.
// maxEdits is clamped to [0,2].
func NewNeighborIndex(values []string, maxEdits int) *NeighborIndex {
	maxEdits = min(max(maxEdits, 0), 2)
	idx := &NeighborIndex{
		maxEdits: maxEdits,
		keys:     make(map[string]int32, len(values)*2),
		values:   values,
	}
	for i, v := range values {
		EachDeletion(v, maxEdits, func(variant []byte) {
			b, ok := idx.keys[string(variant)]
			if !ok {
				b = int32(len(idx.buckets))
				idx.keys[string(variant)] = b
				idx.buckets = append(idx.buckets, nil)
			}
			// A variant reachable by several deletion sets reports the
			// same value again right away.
			if l := idx.buckets[b]; len(l) == 0 || l[len(l)-1] != int32(i) {
				idx.buckets[b] = append(l, int32(i))
			}
		})
	}
	return idx
}

// NumVariants returns the number of distinct deletion variants the
// index buckets under.
func (idx *NeighborIndex) NumVariants() int { return len(idx.keys) }

// Candidates appends to dst the indices (into the constructor's values
// slice) of every string sharing a deletion variant with q — a superset
// of the strings within maxEdits of q, ascending and deduplicated.
// Callers that verify each candidate against their own threshold anyway
// use it instead of Lookup and skip the banded check.
func (idx *NeighborIndex) Candidates(dst []int32, q string) []int32 {
	start := len(dst)
	EachDeletion(q, idx.maxEdits, func(variant []byte) {
		if b, ok := idx.keys[string(variant)]; ok {
			dst = append(dst, idx.buckets[b]...)
		}
	})
	tail := dst[start:]
	slices.Sort(tail)
	return dst[:start+len(slices.Compact(tail))]
}

// Lookup returns the indices (into the constructor's values slice) of all
// strings whose edit distance to q is <= maxEdits, excluding exact self
// positions listed in skip (pass -1 for none), in ascending order.
// Results are deduplicated and verified.
func (idx *NeighborIndex) Lookup(q string, skip int32) []int32 {
	var sq, sv [stackRunes]rune
	qr := AppendRunes(sq[:0], q)
	cands := idx.Candidates(nil, q)
	out := cands[:0]
	for _, cand := range cands {
		if cand == skip {
			continue
		}
		if _, ok := LevenshteinBoundedRunes(qr, AppendRunes(sv[:0], idx.values[cand]), idx.maxEdits); ok {
			out = append(out, cand)
		}
	}
	return out
}

// Variants calls fn once per distinct deletion variant the index
// buckets under — every string obtainable from an indexed value by
// deleting up to the budget's runes, the values themselves included.
// Iteration order is unspecified. Exported so a federation coordinator
// can summarize a member's bucket keys into a routing filter without
// rebuilding the neighborhood.
func (idx *NeighborIndex) Variants(fn func(variant string)) {
	for v := range idx.keys {
		fn(v)
	}
}

// EachDeletion calls fn with s and with every string obtainable from s
// by deleting up to maxEdits runes. The bytes are only valid during the
// call. Deleting any rune of a run of equal runes yields the same
// string, so only a run's leading runes are deleted; a variant reachable
// through unrelated deletion sets ("abab" → "ab") is still reported once
// per set — callers probing buckets or setting filter bits do not care,
// DeletionVariants deduplicates. Invalid UTF-8 is normalized to U+FFFD
// first, like []rune(s) does, so the variants match what earlier
// versions persisted.
func EachDeletion(s string, maxEdits int, fn func(variant []byte)) {
	if !utf8.ValidString(s) {
		s = string([]rune(s))
	}
	var stackOffs [stackRunes + 1]int
	offs := stackOffs[:0]
	for i := range s {
		offs = append(offs, i)
	}
	offs = append(offs, len(s))
	eachDeletion(s, offs, 0, maxEdits, make([]byte, 0, len(s)), fn)
}

// eachDeletion reports prefix + s[offs[start]:] and recurses into every
// further deletion at or after rune start. prefix's backing array has
// room for all of s, so the appends below never reallocate and siblings
// reuse the bytes past their common prefix.
func eachDeletion(s string, offs []int, start, left int, prefix []byte, fn func([]byte)) {
	fn(append(prefix, s[offs[start]:]...))
	if left <= 0 {
		return
	}
	for i := start; i < len(offs)-1; i++ {
		if i > start && s[offs[i-1]:offs[i]] == s[offs[i]:offs[i+1]] {
			continue // same string as deleting rune i-1 instead
		}
		eachDeletion(s, offs, i+1, left-1, append(prefix, s[offs[start]:offs[i]]...), fn)
	}
}

// DeletionVariants returns s plus every string obtainable from s by
// deleting up to maxEdits runes, ascending and deduplicated. Exported so
// the odcodec writer can persist the same buckets NewNeighborIndex
// builds in memory, and a disk reader can probe them with the same
// query variants.
func DeletionVariants(s string, maxEdits int) []string {
	var out []string
	EachDeletion(s, maxEdits, func(variant []byte) { out = append(out, string(variant)) })
	slices.Sort(out)
	return slices.Compact(out)
}
