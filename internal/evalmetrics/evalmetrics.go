// Package evalmetrics provides the effectiveness measures of Section 6:
// recall and precision of detected duplicate pairs against a gold
// standard, and the filter-specific recall/precision definitions of the
// Fig. 8 experiment.
package evalmetrics

// Pair is an unordered object pair; construct with NewPair so that
// A < B canonically.
type Pair struct{ A, B int32 }

// NewPair returns the canonical form of the pair (a, b).
func NewPair(a, b int32) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{a, b}
}

// PairSet is a set of unordered pairs.
type PairSet map[Pair]bool

// NewPairSet builds a set from pairs.
func NewPairSet(pairs ...[2]int32) PairSet {
	s := PairSet{}
	for _, p := range pairs {
		s.Add(p[0], p[1])
	}
	return s
}

// Add inserts the pair (a, b).
func (s PairSet) Add(a, b int32) { s[NewPair(a, b)] = true }

// Has reports membership of (a, b).
func (s PairSet) Has(a, b int32) bool { return s[NewPair(a, b)] }

// PR holds a recall/precision measurement.
type PR struct {
	Recall    float64
	Precision float64
	TruePos   int
	FalsePos  int
	FalseNeg  int
}

// F1 returns the harmonic mean of recall and precision (0 if both are 0).
func (pr PR) F1() float64 {
	if pr.Recall+pr.Precision == 0 {
		return 0
	}
	return 2 * pr.Recall * pr.Precision / (pr.Recall + pr.Precision)
}

// PairsPR evaluates detected duplicate pairs against the gold standard.
// Recall = |detected ∩ gold| / |gold|; precision = |detected ∩ gold| /
// |detected|. Empty denominators yield 1 for precision (nothing falsely
// reported) and 1 for recall only when the gold set is empty too.
func PairsPR(detected, gold PairSet) PR {
	tp := 0
	for p := range detected {
		if gold[p] {
			tp++
		}
	}
	pr := PR{
		TruePos:  tp,
		FalsePos: len(detected) - tp,
		FalseNeg: len(gold) - tp,
	}
	if len(gold) == 0 {
		pr.Recall = 1
	} else {
		pr.Recall = float64(tp) / float64(len(gold))
	}
	if len(detected) == 0 {
		pr.Precision = 1
	} else {
		pr.Precision = float64(tp) / float64(len(detected))
	}
	return pr
}

// FilterPR evaluates the object filter per Fig. 8: recall is the number of
// correctly pruned candidates (pruned objects that indeed have no
// duplicate) divided by the number of non-duplicate candidates; precision
// is correctly pruned divided by all pruned.
func FilterPR(pruned []int32, hasDuplicate func(int32) bool, total int) PR {
	correctly := 0
	for _, id := range pruned {
		if !hasDuplicate(id) {
			correctly++
		}
	}
	nonDup := 0
	for i := 0; i < total; i++ {
		if !hasDuplicate(int32(i)) {
			nonDup++
		}
	}
	pr := PR{
		TruePos:  correctly,
		FalsePos: len(pruned) - correctly,
		FalseNeg: nonDup - correctly,
	}
	if nonDup == 0 {
		pr.Recall = 1
	} else {
		pr.Recall = float64(correctly) / float64(nonDup)
	}
	if len(pruned) == 0 {
		pr.Precision = 1
	} else {
		pr.Precision = float64(correctly) / float64(len(pruned))
	}
	return pr
}
