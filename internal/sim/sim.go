// Package sim implements DogmatiX's domain-independent similarity measure
// (Section 5 of the paper) and the object filter used for comparison
// reduction (Section 5.2).
//
// For a pair of object descriptions the measure proceeds per comparable
// real-world type (condition 1 of Sec. 5): OD tuple pairs with normalized
// edit distance strictly below θtuple are greedily matched one-to-one in
// ascending distance order into the similar set ODT≈ (Eq. 4); leftover
// comparable tuples are greedily matched one-to-one in *descending*
// distance order into the contradictory set ODT≠ (Eq. 7, the cities
// example); everything unmatched is non-specified and has no effect
// (condition 4). The final score is
//
//	sim = setSoftIDF(ODT≈) / (setSoftIDF(ODT≠) + setSoftIDF(ODT≈))
//
// with softIDF from Definition 8, supplied by the od.Store.
//
// For incremental detection the package also exposes replay traces:
// SimilarityTrace/FilterTrace record the occurrence-union sizes behind
// each softIDF term, and ReplayScore/ReplayFilter recompute a score or
// filter bound under a changed corpus size |ΩT| bit-identically —
// matching and tuple distances never depend on the store, so a pair or
// bound whose postings are untouched by an update needs only its trace.
package sim

import "repro/internal/od"

// MatchedPair is one matched tuple pair together with its distance and
// softIDF contribution.
type MatchedPair struct {
	A, B od.Tuple
	// SlotA and SlotB locate A and B in their objects' NonEmptyTuples().
	SlotA, SlotB int
	Dist         float64
	IDF          float64
}

// Result is the full breakdown of one pairwise comparison.
type Result struct {
	Similar       []MatchedPair // ODT≈
	Contradictory []MatchedPair // ODT≠
	SimilarIDF    float64       // setSoftIDF(ODT≈)
	ContraIDF     float64       // setSoftIDF(ODT≠)
	Score         float64       // Eq. 8; 0 when both sums are zero
}

// PairTrace records what one comparison took from the store: the
// occurrence-union sizes behind each matched pair's softIDF term, in
// accumulation order. The matching itself depends only on the two ODs'
// tuple values (edit distances, deterministic tie-breaks) — never on the
// store — so as long as neither OD's exact tuple postings change, the
// score under a different corpus size |ΩT| is ReplayScore(size, trace),
// bit-identical to recomputing Similarity from scratch. This is what
// lets the incremental pipeline patch untouched pairs in O(matches)
// instead of re-running the comparison. The type lives in od so the
// persisted trace segment (od.SaveTraces/LoadTraces) shares it.
type PairTrace = od.PairTrace

// SimilarityTrace is Similarity plus the pair's replay trace.
func SimilarityTrace(store od.Store, a, b *od.OD, thetaTuple float64) (Result, PairTrace) {
	k := borrowKernel(store, thetaTuple)
	defer k.giveBack()
	var tr PairTrace
	return k.breakdown(a, b, &tr), tr
}

// Score is Similarity(...).Score, bit for bit, without materializing
// the matched pairs: the score-only path of Step 5. The postings come
// from post's rows, and so does the store.
func Score(post *Postings, a, b *od.OD, thetaTuple float64) float64 {
	k := borrowKernel(post.store, thetaTuple)
	defer k.giveBack()
	return k.compare(a, b, post.row(a), post.row(b), false, nil)
}

// ScoreTrace is the score of SimilarityTrace without the matched pairs:
// the union sizes are appended to tr's slices after truncating them, so
// a caller that keeps few traces scores every pair into one PairTrace
// and copies the ones it keeps.
func ScoreTrace(post *Postings, a, b *od.OD, thetaTuple float64, tr *PairTrace) float64 {
	k := borrowKernel(post.store, thetaTuple)
	defer k.giveBack()
	tr.SimU, tr.ConU = tr.SimU[:0], tr.ConU[:0]
	return k.compare(a, b, post.row(a), post.row(b), false, tr)
}

// ReplayScore recomputes a traced pair's score under a corpus of the
// given size, replaying the softIDF sums in the original accumulation
// order so the result is bit-identical to a fresh Similarity call.
func ReplayScore(size int, tr PairTrace) float64 {
	var simIDF, conIDF float64
	for _, u := range tr.SimU {
		simIDF += od.SoftIDFValue(size, int(u))
	}
	for _, u := range tr.ConU {
		conIDF += od.SoftIDFValue(size, int(u))
	}
	if simIDF+conIDF > 0 {
		return simIDF / (simIDF + conIDF)
	}
	return 0
}

// Similarity computes sim(a, b) per Section 5.1. Tuples with empty values
// are ignored entirely (they carry no data; see Condition 1). The measure
// is symmetric: arguments are ordered canonically before matching, so
// sim(a,b) == sim(b,a) bit for bit.
func Similarity(store od.Store, a, b *od.OD, thetaTuple float64) Result {
	k := borrowKernel(store, thetaTuple)
	defer k.giveBack()
	return k.breakdown(a, b, nil)
}

// Classify implements the XML duplicate classifier of Definition 6:
// duplicates iff sim > θcand.
func Classify(score, thetaCand float64) bool {
	return score > thetaCand
}

// Filter computes the object filter f(ODi) of Section 5.2 from the store
// indexes, without touching any other OD pairwise: a tuple is *shared* when
// some other object holds an exact or θtuple-similar value of the same
// type (its contribution is the maximum softIDF over such matches, keeping
// f an upper bound of each pairwise numerator term), and *unique*
// otherwise (contribution softIDF of the tuple alone, which upper-bounds
// every contradictory-pair softIDF the tuple can generate).
//
//	f = setSoftIDF(shared) / (setSoftIDF(unique) + setSoftIDF(shared))
//
// Objects with f(ODi) <= θcand cannot reach sim > θcand against any
// partner that shares the paper's uniform-structure assumptions, and are
// pruned wholesale in Step 4. Note the unique-side term makes this filter
// slightly more aggressive than the paper's Sunique intersection when data
// is missing entirely: a tuple no other object shares counts as unique
// even against a partner that has no tuple of its type, where Equation 9
// would count it as neither (FilterExact is the literal form).
func Filter(store od.Store, o *od.OD) float64 {
	bound, _ := filter(store, o, false)
	return bound
}

// FilterStep is one non-empty tuple's contribution to a traced filter
// bound: whether the tuple was shared and the occurrence-union size its
// softIDF term derives from. A tuple's shared/unique status and its
// best-match union depend only on the postings of values θtuple-similar
// to the tuple — the softIDF argmax is the minimal union, independent of
// |ΩT| — so while none of those postings change, the bound under a new
// corpus size is ReplayFilter(size, steps), bit-identical to Filter.
// Shared with the persisted trace segment, hence defined in od.
type FilterStep = od.FilterStep

// FilterTrace is Filter plus the per-tuple replay trace.
func FilterTrace(store od.Store, o *od.OD) (float64, []FilterStep) {
	return filter(store, o, true)
}

// ReplayFilter recomputes a traced bound under a corpus of the given
// size, in the original accumulation order.
func ReplayFilter(size int, steps []FilterStep) float64 {
	var sharedIDF, uniqueIDF float64
	for _, st := range steps {
		if st.Shared {
			sharedIDF += od.SoftIDFValue(size, int(st.Union))
		} else {
			uniqueIDF += od.SoftIDFValue(size, int(st.Union))
		}
	}
	if sharedIDF+uniqueIDF == 0 {
		return 0
	}
	return sharedIDF / (sharedIDF + uniqueIDF)
}

func filter(store od.Store, o *od.OD, traced bool) (float64, []FilterStep) {
	var sharedIDF, uniqueIDF float64
	tuples := o.NonEmptyTuples()
	var steps []FilterStep
	if traced {
		steps = make([]FilterStep, 0, len(tuples))
	}
	size := store.Size()
	for _, t := range tuples {
		// A similar value's postings travel with the match, so the only
		// store question besides SimilarValues is the tuple's own list.
		own := store.ObjectsWithExact(t)
		best, bestU := -1.0, 0
		for _, m := range store.SimilarValues(t) {
			if !heldByOther(m.Objects, o.ID) {
				continue
			}
			u := len(own)
			if m.Value != t.Value {
				u = od.UnionSize(own, m.Objects)
			}
			if idf := od.SoftIDFValue(size, u); idf > best {
				best, bestU = idf, u
			}
		}
		shared := best >= 0
		if shared {
			sharedIDF += best
		} else {
			bestU = len(own)
			uniqueIDF += od.SoftIDFValue(size, bestU)
		}
		if traced {
			steps = append(steps, FilterStep{Shared: shared, Union: int32(bestU)})
		}
	}
	if sharedIDF+uniqueIDF == 0 {
		return 0, steps
	}
	return sharedIDF / (sharedIDF + uniqueIDF), steps
}

// heldByOther reports whether some object besides self is in ids.
func heldByOther(ids []int32, self int32) bool {
	for _, id := range ids {
		if id != self {
			return true
		}
	}
	return false
}

// FilterExact computes f(ODi) literally as Equation 9 defines it, by
// evaluating ODT≈ and ODT≠ against every other object: Sshared collects,
// per tuple of ODi, the maximal similar-pair softIDF observed against any
// partner; Sunique collects the tuples that are contradictory to *every*
// other object (the intersection), each contributing its minimal observed
// contradictory-pair softIDF. This keeps f(ODi) >= sim(ODi, ODj) for all
// j (proof sketch in the package tests). Cost is one sim() per partner, so
// it exists for validation and small data; the pipeline uses Filter.
func FilterExact(store od.Store, o *od.OD, thetaTuple float64) float64 {
	if store.Size() <= 1 {
		return 0
	}
	k := borrowKernel(store, thetaTuple)
	defer k.giveBack()
	k.ownA = appendRow(k.ownA[:0], store, o)
	// Per tuple of o, by its slot in o.NonEmptyTuples().
	n := len(o.NonEmptyTuples())
	sharedMax := make([]float64, n) // max similar idf against any partner
	uniqueMin := make([]float64, n) // min contradictory idf, valid where conSeen
	conSeen := make([]bool, n)
	alwaysCon := make([]bool, n) // contradictory vs every partner so far
	for i := range alwaysCon {
		alwaysCon[i] = true
	}
	inContra := make([]bool, n)
	contraIDF := make([]float64, n)
	// FilterExact inherently visits every OD, so the materialized slice
	// beats per-id fetches: on a disk store, ODs() memoizes the full set
	// once instead of thrashing the fixed-size OD cache n times. On a
	// mutated store the slice spans the full ID space with nil slots at
	// removed IDs — skip those rather than index by the live count.
	for _, other := range store.ODs() {
		if other == nil || other.ID == o.ID {
			continue
		}
		k.ownB = appendRow(k.ownB[:0], store, other)
		k.compare(o, other, k.ownA, k.ownB, true, nil)
		// The kernel orders its arguments canonically by ID, so o's tuples
		// sit on the A side iff o has the lower ID.
		oSlot := func(m MatchedPair) int {
			if o.ID < other.ID {
				return m.SlotA
			}
			return m.SlotB
		}
		clear(inContra)
		for _, m := range k.res.Similar {
			slot := oSlot(m)
			sharedMax[slot] = max(sharedMax[slot], m.IDF)
		}
		for _, m := range k.res.Contradictory {
			slot := oSlot(m)
			inContra[slot], contraIDF[slot] = true, m.IDF
		}
		for slot := 0; slot < n; slot++ {
			switch {
			case !inContra[slot]:
				alwaysCon[slot] = false // similar or non-specified vs this partner
			case !conSeen[slot] || contraIDF[slot] < uniqueMin[slot]:
				conSeen[slot], uniqueMin[slot] = true, contraIDF[slot]
			}
		}
	}
	var sharedIDF, uniqueIDF float64
	for slot := 0; slot < n; slot++ {
		sharedIDF += sharedMax[slot]
		if alwaysCon[slot] {
			uniqueIDF += uniqueMin[slot]
		}
	}
	if sharedIDF+uniqueIDF == 0 {
		return 0
	}
	return sharedIDF / (sharedIDF + uniqueIDF)
}
