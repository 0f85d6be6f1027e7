package od

import (
	"maps"
	"slices"
)

// MemStore is the single-map in-memory Store: one occurrence index and one
// typeIndex per real-world type, built serially in Finalize. It is the
// reference implementation every other backend must agree with.
//
// MemStore also implements MutableStore: after Finalize, the occurrence
// postings are maintained in place while the per-type similarity indexes
// take the typeDelta overlay of delta.go, compacted per type once churn
// crosses the threshold.
type MemStore struct {
	ods  []*OD // by ID; nil at removed slots
	live int   // |ΩT|: assigned minus removed

	theta     float64
	finalized bool
	mutated   bool // any post-Finalize mutation happened

	occ    map[string][]int32 // occKey -> sorted unique live object ids
	types  map[string]*typeIndex
	deltas map[string]*typeDelta // per-type mutation overlay; empty until mutated
	sim    *simCache
}

var _ MutableStore = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		occ:   map[string][]int32{},
		types: map[string]*typeIndex{},
		sim:   newSimCache(),
	}
}

// Add implements Store.
func (s *MemStore) Add(o *OD) *OD {
	if s.finalized {
		panic("od: Add after Finalize")
	}
	o.ID = int32(len(s.ods))
	s.ods = append(s.ods, o)
	return o
}

// Size implements Store: live objects only.
func (s *MemStore) Size() int {
	if s.finalized {
		return s.live
	}
	return len(s.ods)
}

// Theta implements Store.
func (s *MemStore) Theta() float64 { return s.theta }

// OD implements Store. Returns nil for a removed id.
func (s *MemStore) OD(id int32) *OD { return s.ods[id] }

// ODs implements Store. Removed slots are nil.
func (s *MemStore) ODs() []*OD { return s.ods }

// Alive implements MutableStore.
func (s *MemStore) Alive(id int32) bool {
	return id >= 0 && int(id) < len(s.ods) && s.ods[id] != nil
}

// IDSpan implements MutableStore.
func (s *MemStore) IDSpan() int32 { return int32(len(s.ods)) }

// Finalize implements Store. It must be called exactly once, after all
// Adds. The build runs the shared index builder serially: occurrence
// postings, per-type value tables, similarity indexes.
func (s *MemStore) Finalize(theta float64) {
	if s.finalized {
		panic("od: Finalize called twice")
	}
	s.finalized = true
	s.theta = theta
	s.live = len(s.ods)

	s.occ = buildOccurrence(s.ods)
	s.types = buildTypeIndexes(groupValuesByType(s.occ), theta)
	s.deltas = map[string]*typeDelta{}
}

// AddAfterFinalize implements MutableStore.
func (s *MemStore) AddAfterFinalize(ods []*OD) error {
	s.mustBeFinal()
	if len(ods) == 0 {
		return nil
	}
	s.mutated = true
	seen := map[string]bool{}
	touched := map[string]bool{}
	for _, o := range ods {
		o.ID = int32(len(s.ods))
		s.ods = append(s.ods, o)
		s.live++
		scanODTuples(o, seen, func(k string) {
			ids, existed := s.occ[k]
			s.occ[k] = appendPosting(ids, o.ID)
			typ, val := splitOccKey(k)
			touched[typ] = true
			newToBase := false
			if !existed {
				ti := s.types[typ]
				newToBase = ti == nil || !ti.has(val)
			}
			s.delta(typ).add(val, newToBase)
		})
	}
	s.maybeCompact(touched)
	return nil
}

// Remove implements MutableStore.
func (s *MemStore) Remove(ids []int32) error {
	s.mustBeFinal()
	if err := validateRemovals(s.IDSpan(), s.Alive, ids); err != nil {
		return err
	}
	if len(ids) == 0 {
		return nil
	}
	s.mutated = true
	seen := map[string]bool{}
	touched := map[string]bool{}
	for _, id := range ids {
		o := s.ods[id]
		scanODTuples(o, seen, func(k string) {
			rest := removePosting(s.occ[k], id)
			if len(rest) == 0 {
				delete(s.occ, k)
			} else {
				s.occ[k] = rest
			}
			typ, _ := splitOccKey(k)
			touched[typ] = true
			s.delta(typ).add("", false) // count the mutation only
		})
		s.ods[id] = nil
		s.live--
	}
	s.maybeCompact(touched)
	return nil
}

// delta returns (creating if needed) the mutation overlay of one type.
func (s *MemStore) delta(typ string) *typeDelta {
	d := s.deltas[typ]
	if d == nil {
		d = newTypeDelta()
		s.deltas[typ] = d
	}
	return d
}

// maybeCompact closes a mutation batch: the cached similar-value
// answers of every touched type are orphaned, and the overlay of each
// one whose churn crossed the threshold is folded back into a freshly
// built base index — the scoped rebuild the delta design bounds its
// query overhead with.
func (s *MemStore) maybeCompact(touched map[string]bool) {
	for typ := range touched {
		s.sim.touch(typ)
		d := s.deltas[typ]
		base := s.types[typ]
		baseVals := 0
		if base != nil {
			baseVals = len(base.values)
		}
		if d == nil || !d.due(baseVals) {
			continue
		}
		if m, _ := s.liveValues(typ); m == nil {
			delete(s.types, typ)
		} else {
			s.types[typ] = buildTypeIndex(m, s.theta)
		}
		delete(s.deltas, typ)
	}
}

// ObjectsWithExact implements Store.
func (s *MemStore) ObjectsWithExact(t Tuple) []int32 {
	s.mustBeFinal()
	return occLookup(s.occ, t.Type, t.Value)
}

// SimilarValues implements Store. On a mutated type the base index
// collect resolves postings through the live occurrence lists (skipping
// values that emptied) and the overlay values are scanned linearly; the
// merged matches sort into the same canonical order as a fresh build's.
func (s *MemStore) SimilarValues(t Tuple) []ValueMatch {
	s.mustBeFinal()
	if t.Value == "" {
		return nil
	}
	ti := s.types[t.Type]
	d := s.deltas[t.Type]
	if ti == nil && d == nil {
		return nil
	}
	if cached, ok := s.sim.get(t); ok {
		return cached
	}
	var stack [64]rune
	q := newQuery(stack[:0], t.Value)
	out := collectLive(ti, d, t.Type, q, s.theta, s.occ)
	sortMatches(out)
	s.sim.put(t, out)
	return out
}

// Neighbors implements Store.
func (s *MemStore) Neighbors(id int32) []int32 {
	s.mustBeFinal()
	return neighborsOf(s, id)
}

// Stats implements Store. Mutated types are recomputed exactly over the
// live values, so the row matches what a fresh build over the live set
// would report (Indexed excepted: the overlay's linear scan keeps the
// base's index choice).
func (s *MemStore) Stats() []TypeStats {
	s.mustBeFinal()
	var out []TypeStats
	for _, typ := range s.typeNames() {
		ti := s.types[typ]
		st := TypeStats{Type: typ, Indexed: ti != nil && ti.neighbor != nil}
		if s.deltas[typ] == nil {
			st.DistinctValues, st.MaxLen = len(ti.values), ti.maxLen
		} else if m, maxLen := s.liveValues(typ); m != nil {
			st.DistinctValues, st.MaxLen = len(m), maxLen
		} else {
			continue
		}
		st.EditBudget = editBudget(s.theta, st.MaxLen)
		out = append(out, st)
	}
	sortTypeStats(out)
	return out
}

// typeNames lists every type with a base index or a mutation overlay,
// in no particular order.
func (s *MemStore) typeNames() []string {
	names := slices.Collect(maps.Keys(s.types))
	for typ := range s.deltas {
		if s.types[typ] == nil {
			names = append(names, typ)
		}
	}
	return names
}

// liveValues is one type's live value table with its maximum value
// length, assembled through the type's overlay; nil when no value of
// the type lives.
func (s *MemStore) liveValues(typ string) (map[string][]int32, int) {
	return liveValueTable(s.types[typ], s.deltas[typ], func(val string) []int32 {
		return s.occ[occKeyOf(typ, val)]
	})
}

// routingFilters implements variantFilterSource: one covered filter
// per unmutated neighbor-indexed type (the bloom summarizes the live
// index's buckets), uncovered entries for everything else — types
// outside the indexable budget tier and types carrying a mutation
// overlay, whose post-Finalize values are not in the base neighborhood.
func (s *MemStore) routingFilters() []VariantFilter {
	s.mustBeFinal()
	out := make([]VariantFilter, 0, len(s.types)+len(s.deltas))
	for typ, ti := range s.types {
		f := VariantFilter{Type: typ, MaxLen: ti.maxLen}
		if ti.neighbor != nil && s.deltas[typ] == nil {
			f.Covered = true
			f.Budget = ti.budget
			hashes := ti.neighbor.Hashes()
			f.Bits = newBloomBits(len(hashes))
			for _, h := range hashes {
				bloomAdd(f.Bits, h)
			}
		}
		out = append(out, f)
	}
	for typ := range s.deltas {
		if s.types[typ] == nil {
			out = append(out, VariantFilter{Type: typ})
		}
	}
	sortVariantFilters(out)
	return out
}

func (s *MemStore) mustBeFinal() {
	if !s.finalized {
		panic("od: store not finalized")
	}
}
