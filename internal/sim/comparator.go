package sim

import "repro/internal/od"

// Class is the classification of one candidate pair, following the
// framework's three classes of Section 2.2.
type Class int

const (
	// ClassNonDuplicate is C3: the pair is not reported.
	ClassNonDuplicate Class = iota
	// ClassPossible is C2: possible duplicates, reported for expert review.
	ClassPossible
	// ClassDuplicate is C1: duplicates, joined into clusters.
	ClassDuplicate
)

// Comparator is the Step 5 pairwise strategy: how a candidate pair is
// scored and how the score maps to a class. The pipeline treats it as a
// black box, so the paper's Sec. 5.1 measure, a baseline measure, or a
// learned model are interchangeable.
//
// Two pipeline optimizations are lossless ONLY for the paper's measure:
// shared-value blocking visits just the pairs sharing a θtuple-similar
// value, and the Step 4 object filter upper-bounds the Sec. 5.1 score. A
// comparator that can score pairs without similar tuple values (e.g. a
// tree-edit measure) must run with Config.DisableBlocking and without
// UseFilter — or supply a matching ObjectFilter — or those pairs are
// silently never compared.
type Comparator interface {
	// Compare scores the pair; higher means more similar. Must be
	// symmetric and deterministic.
	Compare(store od.Store, a, b *od.OD) float64
	// Classify maps a Compare score to one of the three classes.
	Classify(score float64) Class
}

// ObjectFilter is the Step 4 comparison-reduction strategy: an upper bound
// on the best similarity an object can reach against any partner. Objects
// whose bound does not exceed the duplicate threshold are pruned wholesale.
type ObjectFilter interface {
	Bound(store od.Store, o *od.OD) float64
}

// Classifier is the paper's duplicate definition: the Section 5.1
// similarity measure scored at θtuple, classified per Definition 6
// (duplicates iff sim > θcand) with the optional C2 band
// (θpossible < sim <= θcand) of Section 2.2.
type Classifier struct {
	ThetaTuple    float64
	ThetaCand     float64
	ThetaPossible float64 // 0 disables the possible-duplicates class
}

var _ Comparator = Classifier{}

// Compare implements Comparator with the Similarity score — bit for bit
// Similarity(...).Score — without materializing the matched pairs.
func (c Classifier) Compare(store od.Store, a, b *od.OD) float64 {
	k := borrowKernel(store, c.ThetaTuple)
	defer k.giveBack()
	return k.compare(a, b, false, nil)
}

// Classify implements Comparator.
func (c Classifier) Classify(score float64) Class {
	switch {
	case Classify(score, c.ThetaCand):
		return ClassDuplicate
	case c.ThetaPossible > 0 && score > c.ThetaPossible:
		return ClassPossible
	default:
		return ClassNonDuplicate
	}
}

// IndexFilter is the pipeline's object filter: f(ODi) per Section 5.2,
// computed from the store's value indexes without touching any other OD
// pairwise (see Filter).
type IndexFilter struct{}

var _ ObjectFilter = IndexFilter{}

// Bound implements ObjectFilter with Filter.
func (IndexFilter) Bound(store od.Store, o *od.OD) float64 {
	return Filter(store, o)
}
