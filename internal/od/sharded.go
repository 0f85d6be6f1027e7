package od

import (
	"sync"
	"unicode/utf8"

	"repro/internal/conc"
)

// ShardedStore partitions the occurrence and distinct-value indexes across
// N shards keyed by a hash of (type, value). Each shard carries its own
// lock, so index construction fans out across GOMAXPROCS workers; the
// similar-value cache is the lock-striped simCache every single-node
// backend shares. Query results are bit-identical to MemStore's: the
// shards partition *values*, every similar-value query fans out to all
// shards, and the merged matches are sorted into the same canonical order.
//
// ShardedStore also implements MutableStore: a mutation batch routes its
// occurrence-key changes to the owning shards and applies them in
// parallel under the existing lock stripes, each shard maintaining its
// own typeDelta overlays and compacting its slice of a churned type
// independently (see delta.go).
type ShardedStore struct {
	ods  []*OD // by ID; nil at removed slots
	live int

	// Workers bounds the goroutines Finalize fans out; 0 means GOMAXPROCS
	// and 1 forces a fully serial build. Set it before calling Finalize.
	Workers int

	theta     float64
	finalized bool
	mutated   bool // any post-Finalize mutation happened
	nShards   int
	shards    []storeShard

	// typeMaxLen tracks each type's store-wide maximum value rune length,
	// grow-only between compactions: shard-scoped rebuilds must size their
	// edit budgets from the global maximum, never a shard-local one.
	typeMaxLen map[string]int

	sim *simCache // merged cross-shard SimilarValues answers
}

type storeShard struct {
	mu      sync.Mutex // guards pending during the parallel Finalize scan
	pending []occEntry

	occ    map[string][]int32 // occKey -> sorted unique live object ids
	types  map[string]*typeIndex
	deltas map[string]*typeDelta
}

type occEntry struct {
	key string
	id  int32
}

var _ MutableStore = (*ShardedStore)(nil)

// NewShardedStore returns an empty store with the given shard count.
// Counts below 1 are clamped to 1 (which behaves like a lock-striped
// MemStore); a power of two near GOMAXPROCS is a good default.
func NewShardedStore(shards int) *ShardedStore {
	if shards < 1 {
		shards = 1
	}
	return &ShardedStore{
		nShards: shards,
		shards:  make([]storeShard, shards),
		sim:     newSimCache(),
	}
}

// ShardCount returns the number of index shards.
func (s *ShardedStore) ShardCount() int { return s.nShards }

// Add implements Store.
func (s *ShardedStore) Add(o *OD) *OD {
	if s.finalized {
		panic("od: Add after Finalize")
	}
	o.ID = int32(len(s.ods))
	s.ods = append(s.ods, o)
	return o
}

// Size implements Store: live objects only.
func (s *ShardedStore) Size() int {
	if s.finalized {
		return s.live
	}
	return len(s.ods)
}

// Theta implements Store.
func (s *ShardedStore) Theta() float64 { return s.theta }

// OD implements Store. Returns nil for a removed id.
func (s *ShardedStore) OD(id int32) *OD { return s.ods[id] }

// ODs implements Store. Removed slots are nil.
func (s *ShardedStore) ODs() []*OD { return s.ods }

// Alive implements MutableStore.
func (s *ShardedStore) Alive(id int32) bool {
	return id >= 0 && int(id) < len(s.ods) && s.ods[id] != nil
}

// IDSpan implements MutableStore.
func (s *ShardedStore) IDSpan() int32 { return int32(len(s.ods)) }

// shardOf maps an occurrence key to its owning shard (FNV-1a).
func (s *ShardedStore) shardOf(key string) int {
	return int(fnv1a(key, 0) % uint32(s.nShards))
}

// shardOfValue is shardOf(occKeyOf(typ, val)) without building the key.
func (s *ShardedStore) shardOfValue(typ, val string) int {
	return int(fnv1aOcc(typ, val, 0) % uint32(s.nShards))
}

// Finalize implements Store. The build runs in four parallel phases:
// (1) scan the ODs and route (key, id) entries to their shards under the
// per-shard locks, (2) per shard, assemble and sort the occurrence lists,
// (3) gather each type's global maximum value length (the edit budgets
// must not depend on how values were sharded), and (4) per shard, build
// the distinct-value indexes.
func (s *ShardedStore) Finalize(theta float64) {
	if s.finalized {
		panic("od: Finalize called twice")
	}
	s.finalized = true
	s.theta = theta
	s.live = len(s.ods)

	// Phase 1: parallel OD scan (the shared builder's per-OD tuple walk)
	// with per-worker buffers, flushed to the owning shard under its lock.
	conc.Ranges(s.Workers, len(s.ods), 0, func(lo, hi int) {
		buf := make([][]occEntry, s.nShards)
		seen := map[string]bool{}
		for i := lo; i < hi; i++ {
			o := s.ods[i]
			scanODTuples(o, seen, func(k string) {
				sh := s.shardOf(k)
				buf[sh] = append(buf[sh], occEntry{key: k, id: o.ID})
			})
		}
		for sh := range buf {
			if len(buf[sh]) == 0 {
				continue
			}
			s.shards[sh].mu.Lock()
			s.shards[sh].pending = append(s.shards[sh].pending, buf[sh]...)
			s.shards[sh].mu.Unlock()
		}
	})

	// Phase 2: per shard, group pending entries into occurrence lists and
	// sort them (ids are unique per key, so sorting yields the canonical
	// order no matter how workers interleaved).
	conc.Ranges(s.Workers, s.nShards, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sh := &s.shards[i]
			sh.occ = make(map[string][]int32, len(sh.pending))
			for _, e := range sh.pending {
				sh.occ[e.key] = append(sh.occ[e.key], e.id)
			}
			sh.pending = nil
			for _, ids := range sh.occ {
				sortInt32s(ids)
			}
		}
	})

	// Phase 3: global per-type maximum value length.
	localMax := make([]map[string]int, s.nShards)
	conc.Ranges(s.Workers, s.nShards, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m := map[string]int{}
			for key := range s.shards[i].occ {
				typ, val := splitOccKey(key)
				if l := utf8.RuneCountInString(val); l > m[typ] {
					m[typ] = l
				}
			}
			localMax[i] = m
		}
	})
	globalMax := map[string]int{}
	for _, m := range localMax {
		for typ, l := range m {
			if l > globalMax[typ] {
				globalMax[typ] = l
			}
		}
	}
	s.typeMaxLen = globalMax

	// Phase 4: per shard, build the distinct-value indexes over the
	// shard's slice of the value tables, sized by the global edit budgets.
	conc.Ranges(s.Workers, s.nShards, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sh := &s.shards[i]
			sh.types = buildTypeIndexes(groupValuesByType(sh.occ), theta, globalMax)
			sh.deltas = map[string]*typeDelta{}
		}
	})
}

// AddAfterFinalize implements MutableStore: the batch's occurrence-key
// changes are routed to their owning shards serially, then applied per
// shard in parallel under the shard locks.
func (s *ShardedStore) AddAfterFinalize(ods []*OD) error {
	s.mustBeFinal()
	if len(ods) == 0 {
		return nil
	}
	s.mutated = true
	buf := make([][]occEntry, s.nShards)
	seen := map[string]bool{}
	for _, o := range ods {
		o.ID = int32(len(s.ods))
		s.ods = append(s.ods, o)
		s.live++
		scanODTuples(o, seen, func(k string) {
			sh := s.shardOf(k)
			buf[sh] = append(buf[sh], occEntry{key: k, id: o.ID})
			typ, val := splitOccKey(k)
			s.sim.touch(typ)
			if l := utf8.RuneCountInString(val); l > s.typeMaxLen[typ] {
				s.typeMaxLen[typ] = l
			}
		})
	}
	s.applyShardEntries(buf, true)
	return nil
}

// Remove implements MutableStore.
func (s *ShardedStore) Remove(ids []int32) error {
	s.mustBeFinal()
	if err := validateRemovals(s.IDSpan(), s.Alive, ids); err != nil {
		return err
	}
	if len(ids) == 0 {
		return nil
	}
	s.mutated = true
	buf := make([][]occEntry, s.nShards)
	seen := map[string]bool{}
	for _, id := range ids {
		o := s.ods[id]
		scanODTuples(o, seen, func(k string) {
			sh := s.shardOf(k)
			buf[sh] = append(buf[sh], occEntry{key: k, id: id})
			typ, _ := splitOccKey(k)
			s.sim.touch(typ)
		})
		s.ods[id] = nil
		s.live--
	}
	s.applyShardEntries(buf, false)
	return nil
}

// applyShardEntries applies one mutation batch shard by shard in
// parallel: postings update in place, overlays record churn, and any
// type whose shard slice crossed the compaction threshold is rebuilt
// scoped to that shard.
func (s *ShardedStore) applyShardEntries(buf [][]occEntry, add bool) {
	conc.Ranges(s.Workers, s.nShards, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sh := &s.shards[i]
			if len(buf[i]) == 0 {
				continue
			}
			sh.mu.Lock()
			touched := map[string]bool{}
			for _, e := range buf[i] {
				typ, val := splitOccKey(e.key)
				touched[typ] = true
				d := sh.deltas[typ]
				if d == nil {
					d = newTypeDelta()
					sh.deltas[typ] = d
				}
				if add {
					ids, existed := sh.occ[e.key]
					sh.occ[e.key] = appendPosting(ids, e.id)
					newToBase := false
					if !existed {
						ti := sh.types[typ]
						newToBase = ti == nil || !ti.has(val)
					}
					d.add(val, newToBase)
				} else {
					rest := removePosting(sh.occ[e.key], e.id)
					if len(rest) == 0 {
						delete(sh.occ, e.key)
					} else {
						sh.occ[e.key] = rest
					}
					d.add("", false)
				}
			}
			for typ := range touched {
				d := sh.deltas[typ]
				base := sh.types[typ]
				baseVals := 0
				if base != nil {
					baseVals = len(base.values)
				}
				if !d.due(baseVals) {
					continue
				}
				m, _ := liveValueTable(base, d, func(val string) []int32 {
					return sh.occ[occKeyOf(typ, val)]
				})
				if m == nil {
					delete(sh.types, typ)
				} else {
					sh.types[typ] = buildTypeIndex(m, s.theta, s.typeMaxLen[typ])
				}
				delete(sh.deltas, typ)
			}
			sh.mu.Unlock()
		}
	})
}

// ObjectsWithExact implements Store.
func (s *ShardedStore) ObjectsWithExact(t Tuple) []int32 {
	s.mustBeFinal()
	return occLookup(s.shards[s.shardOfValue(t.Type, t.Value)].occ, t.Type, t.Value)
}

// SimilarValues implements Store. The query fans out to every shard's
// slice of the type's values and the merged result is cached.
func (s *ShardedStore) SimilarValues(t Tuple) []ValueMatch {
	s.mustBeFinal()
	if t.Value == "" {
		return nil
	}
	if cached, ok := s.sim.get(t); ok {
		return cached
	}
	var stack [64]rune
	q := newQuery(stack[:0], t.Value)
	var out []ValueMatch
	for i := range s.shards {
		sh := &s.shards[i]
		out = collectLive(out, sh.types[t.Type], sh.deltas[t.Type], t.Type, q, s.theta, sh.occ)
	}
	sortMatches(out)
	s.sim.put(t, out)
	return out
}

// SoftIDF implements Store.
func (s *ShardedStore) SoftIDF(a, b Tuple) float64 {
	s.mustBeFinal()
	return softIDF(s.Size(), OccUnion(s, a, b))
}

// SoftIDFSingle implements Store.
func (s *ShardedStore) SoftIDFSingle(t Tuple) float64 {
	return s.SoftIDF(t, t)
}

// Neighbors implements Store.
func (s *ShardedStore) Neighbors(id int32) []int32 {
	s.mustBeFinal()
	return neighborsOf(s, id)
}

// Stats implements Store. Per-type rows are merged across shards so the
// output matches MemStore's: distinct values sum, lengths take the
// maximum, and the edit budget is shard-independent by construction.
// Mutated types are recomputed exactly over their live values, matching
// a fresh build over the live set (Indexed excepted, as for MemStore).
func (s *ShardedStore) Stats() []TypeStats {
	s.mustBeFinal()
	mutated := map[string]bool{}
	for i := range s.shards {
		for typ := range s.shards[i].deltas {
			mutated[typ] = true
		}
	}
	byType := map[string]*TypeStats{}
	for i := range s.shards {
		sh := &s.shards[i]
		for typ, ti := range sh.types {
			if mutated[typ] {
				continue
			}
			st, ok := byType[typ]
			if !ok {
				st = &TypeStats{
					Type:       typ,
					EditBudget: ti.budget,
					Indexed:    ti.neighbor != nil,
				}
				byType[typ] = st
			}
			st.DistinctValues += len(ti.values)
			if ti.maxLen > st.MaxLen {
				st.MaxLen = ti.maxLen
			}
		}
	}
	if s.mutated {
		// A type compacted after mutations carries an internal budget
		// sized by the grow-only typeMaxLen, which may exceed the live
		// maximum once the longest value was removed. The per-shard
		// maxLen values are exact, so re-derive the reported budget from
		// their merged maximum — matching MemStore and a fresh build.
		for _, st := range byType {
			st.EditBudget = editBudget(s.theta, st.MaxLen)
		}
	}
	for typ := range mutated {
		var st *TypeStats
		for i := range s.shards {
			sh := &s.shards[i]
			ti := sh.types[typ]
			m, maxLen := liveValueTable(ti, sh.deltas[typ], func(val string) []int32 {
				return sh.occ[occKeyOf(typ, val)]
			})
			if m == nil {
				continue
			}
			if st == nil {
				st = &TypeStats{Type: typ, Indexed: ti != nil && ti.neighbor != nil}
				byType[typ] = st
			}
			st.DistinctValues += len(m)
			if maxLen > st.MaxLen {
				st.MaxLen = maxLen
			}
		}
		if st != nil {
			st.EditBudget = editBudget(s.theta, st.MaxLen)
		}
	}
	out := make([]TypeStats, 0, len(byType))
	for _, st := range byType {
		out = append(out, *st)
	}
	sortTypeStats(out)
	return out
}

// routingFilters implements variantFilterSource. A type is covered only
// when every shard slice of it carries a neighbor index (they share one
// global budget, so this is all-or-nothing per type in practice) and no
// shard holds a mutation overlay for it; the bloom unions every shard's
// buckets. MaxLen comes from the grow-only global maximum — possibly an
// overestimate after removals, which only widens the edit need the
// coordinator derives and so stays conservative.
func (s *ShardedStore) routingFilters() []VariantFilter {
	s.mustBeFinal()
	deltaTypes := map[string]bool{}
	for i := range s.shards {
		for typ := range s.shards[i].deltas {
			deltaTypes[typ] = true
		}
	}
	tis := map[string][]*typeIndex{}
	for i := range s.shards {
		for typ, ti := range s.shards[i].types {
			tis[typ] = append(tis[typ], ti)
		}
	}
	for typ := range deltaTypes {
		if _, ok := tis[typ]; !ok {
			tis[typ] = nil
		}
	}
	out := make([]VariantFilter, 0, len(tis))
	for typ, list := range tis {
		f := VariantFilter{Type: typ, MaxLen: s.typeMaxLen[typ]}
		covered := !deltaTypes[typ] && len(list) > 0
		nvar := 0
		for _, ti := range list {
			if ti.neighbor == nil {
				covered = false
				break
			}
			nvar += ti.neighbor.NumVariants()
		}
		if covered {
			f.Covered = true
			f.Budget = list[0].budget
			f.Bits = newBloomBits(nvar)
			for _, ti := range list {
				ti.neighbor.Variants(func(v string) { bloomAdd(f.Bits, variantHash(v)) })
			}
		}
		out = append(out, f)
	}
	sortVariantFilters(out)
	return out
}

func (s *ShardedStore) mustBeFinal() {
	if !s.finalized {
		panic("od: store not finalized")
	}
}
