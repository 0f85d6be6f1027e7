package od

import (
	"sort"

	"repro/internal/strdist"
)

// typeIndex answers similar-value queries for the distinct values of one
// real-world type. It is built once during Finalize and read-only
// afterwards.
type typeIndex struct {
	values  []string
	objects [][]int32
	byValue map[string]int32
	// runes holds every value decoded once, back to back; value idx spans
	// runes[runeOff[idx]:runeOff[idx+1]]. Neither lookup tier decodes an
	// indexed value again.
	runes    []rune
	runeOff  []int32
	sigs     []uint64 // strdist.Signature per value, the first gate of both tiers
	maxLen   int      // longest value indexed here
	budget   int      // strict edit budget for a value of maxLen runes
	neighbor *strdist.NeighborIndex
	byLen    map[int][]int32
}

// query is one similar-value question with its value decoded and its
// signature folded once.
type query struct {
	val   string
	runes []rune
	sig   uint64
}

func newQuery(buf []rune, val string) query {
	runes := strdist.AppendRunes(buf, val)
	return query{val: val, runes: runes, sig: strdist.Signature(runes)}
}

// buildTypeIndex indexes the value -> sorted-object-ids table of one type.
// The edit budget derives from the longest value in m; a query that
// out-ranges it is caught by collect's coverage guard.
func buildTypeIndex(m map[string][]int32, theta float64) *typeIndex {
	ti := &typeIndex{byValue: map[string]int32{}, byLen: map[int][]int32{}}
	vals := make([]string, 0, len(m))
	for v := range m {
		vals = append(vals, v)
	}
	sort.Strings(vals) // deterministic ordering
	ti.runeOff = make([]int32, 1, len(vals)+1)
	for _, v := range vals {
		id := int32(len(ti.values))
		ti.values = append(ti.values, v)
		ti.objects = append(ti.objects, m[v])
		ti.byValue[v] = id
		ti.runes = strdist.AppendRunes(ti.runes, v)
		ti.runeOff = append(ti.runeOff, int32(len(ti.runes)))
		ti.sigs = append(ti.sigs, strdist.Signature(ti.runesOf(id)))
		l := len(ti.runesOf(id))
		ti.byLen[l] = append(ti.byLen[l], id)
		if l > ti.maxLen {
			ti.maxLen = l
		}
	}
	ti.budget = editBudget(theta, ti.maxLen)
	if ti.budget >= 0 && ti.budget <= 2 {
		ti.neighbor = strdist.NewNeighborIndex(ti.values, ti.budget)
	}
	return ti
}

// has reports whether the index holds the exact value.
func (ti *typeIndex) has(v string) bool {
	_, ok := ti.byValue[v]
	return ok
}

// runesOf returns the decoded runes of value idx.
func (ti *typeIndex) runesOf(idx int32) []rune {
	return ti.runes[ti.runeOff[idx]:ti.runeOff[idx+1]]
}

// collect appends to dst the index of every value whose normalized edit
// distance to q is strictly below theta. Both lookup paths (deletion-
// neighborhood index or length-windowed scan) verify each candidate
// against the threshold, so they yield the same result set; its order is
// unspecified.
func (ti *typeIndex) collect(dst []int32, q query, theta float64) []int32 {
	qLen := len(q.runes)
	// The deletion-neighborhood index is complete only when its budget
	// covers every possible match against q: a match needs at most
	// MaxEditsBelow(θ, max(|q|, |v|)) edits and |v| <= ti.maxLen. For
	// queries over stored values this always holds (the budget derives
	// from the store-wide maximum length); an arbitrary longer query —
	// possible through the public API and routine for a mutable store
	// whose values grew past the budget the base index was built with —
	// falls back to the complete length-windowed scan.
	if ti.neighbor != nil {
		if need := strdist.MaxEditsBelow(theta, max(qLen, ti.maxLen)); need >= 0 && need <= ti.budget {
			start := len(dst)
			dst = ti.neighbor.Candidates(dst, q.val)
			kept := dst[:start]
			for _, idx := range dst[start:] {
				if strdist.NormalizedBelowSig(q.runes, ti.runesOf(idx), q.sig, ti.sigs[idx], theta) {
					kept = append(kept, idx)
				}
			}
			return kept
		}
	}
	// Scan within the feasible length window with NormalizedBelowSig's
	// gates hoisted: budget and length once per bucket, then the stored
	// signature — it rejects most of a bucket without touching its runes
	// — and only then the banded DP. Neither queries nor indexed values
	// are ever empty, so the bucket budget is the strict one.
	for l, ids := range ti.byLen {
		budget := strdist.MaxEditsBelow(theta, max(qLen, l))
		if budget < 0 || strdist.Abs(qLen-l) > budget {
			continue
		}
		for _, idx := range ids {
			if strdist.SignatureBound(q.sig, ti.sigs[idx]) > budget {
				continue
			}
			if _, ok := strdist.LevenshteinBoundedRunes(q.runes, ti.runesOf(idx), budget); ok {
				dst = append(dst, idx)
			}
		}
	}
	return dst
}

// match converts an index hit into the ValueMatch the Store API returns.
func (ti *typeIndex) match(q query, idx int32) ValueMatch {
	return ValueMatch{
		Value:   ti.values[idx],
		Objects: ti.objects[idx],
		Dist:    strdist.NormalizedRunes(q.runes, ti.runesOf(idx)),
	}
}
