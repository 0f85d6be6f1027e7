package od

import (
	"fmt"
	"sort"
	"unicode/utf8"

	"repro/internal/strdist"
)

// This file is the post-Finalize mutation machinery every MutableStore
// backend shares. The finalized indexes built by builder.go stay
// immutable; mutations accumulate in small delta structures layered on
// top of them:
//
//   - Occurrence postings are kept canonical at all times: AddAfterFinalize
//     appends the new (always larger) IDs in place, Remove copy-splices
//     them out, so ObjectsWithExact never consults a delta.
//   - Distinct-value tables are overlaid: values that appeared after
//     Finalize live in a per-type typeDelta scanned linearly at query
//     time, values whose posting lists emptied are skipped by looking at
//     the live postings, and the base typeIndex is never touched.
//   - A compaction threshold bounds the overlay: once a type has seen
//     enough mutations relative to its base size, the type's index is
//     rebuilt from the live values with the shared builder — a rebuild
//     scoped to one type, never the whole store.
//
// Between compactions a type's edit budget only grows (new long values
// raise it; removals never shrink it). That is safe for query results —
// every similar-value path re-verifies θtuple, and typeIndex.collect's
// coverage guard falls back to a scan whenever a query could out-range
// the neighborhood index. Compaction recomputes the exact budget from
// the live values, and Stats derives the reported budget of a mutated
// type from its exact live maximum, so diagnostics converge to what a
// fresh build reports.

// addedVal is one overlay value with its runes decoded at insertion:
// the length-window pruning and the distance check in collectAdded run
// once per overlay value per query, so decoding there made every
// similar-value query over a mutated store pay a decode linear in the
// overlay size.
type addedVal struct {
	val   string
	runes []rune
	sig   uint64 // strdist.Signature(runes)
}

func newAddedVal(v string) addedVal {
	runes := []rune(v)
	return addedVal{val: v, runes: runes, sig: strdist.Signature(runes)}
}

// typeDelta is the mutation overlay of one type's value table.
type typeDelta struct {
	added    []addedVal      // distinct values absent from the base index, insertion order
	addedSet map[string]bool // membership for added
	muts     int             // mutations since the last compaction
}

func newTypeDelta() *typeDelta {
	return &typeDelta{addedSet: map[string]bool{}}
}

// compactMin is the minimum mutation count before a type compacts. A
// variable so tests can force the compaction path on small fixtures.
var compactMin = 64

// due reports whether the overlay should be folded into a rebuilt base
// index: at least compactMin mutations and at least a quarter of the
// base table churned.
func (d *typeDelta) due(baseValues int) bool {
	return d.muts >= compactMin && d.muts*4 >= baseValues
}

// add records a value sighting; newToBase reports whether the value is
// absent from the base index (then it joins the linear-scan overlay).
func (d *typeDelta) add(val string, newToBase bool) {
	d.muts++
	if newToBase && !d.addedSet[val] {
		d.addedSet[val] = true
		d.added = append(d.added, newAddedVal(val))
	}
}

// collectAdded emits every overlay value of one type whose normalized
// edit distance to q is strictly below theta, with the same per-value
// length-window pruning as the base scan paths.
func collectAdded(added []addedVal, q query, theta float64, emit func(av addedVal)) {
	qLen := len(q.runes)
	for _, av := range added {
		budget := strdist.MaxEditsBelow(theta, max(qLen, len(av.runes)))
		if budget < 0 || strdist.Abs(qLen-len(av.runes)) > budget {
			continue
		}
		if strdist.NormalizedBelowSig(q.runes, av.runes, q.sig, av.sig, theta) {
			emit(av)
		}
	}
}

// collectLive returns every live value of one type whose normalized
// edit distance to q is strictly below theta, in unspecified order —
// MemStore's overlay-aware query path. The base index collect runs as
// built when no delta exists; with one, postings re-resolve through the
// live occurrence lists (values that emptied drop out) and the overlay
// values are scanned linearly.
func collectLive(ti *typeIndex, d *typeDelta, typ string, q query, theta float64, occ map[string][]int32) []ValueMatch {
	var out []ValueMatch
	if ti != nil {
		var stack [64]int32
		for _, idx := range ti.collect(stack[:0], q, theta) {
			m := ti.match(q, idx)
			if d != nil {
				m.Objects = occLookup(occ, typ, m.Value)
			}
			if len(m.Objects) > 0 {
				out = append(out, m)
			}
		}
	}
	if d != nil {
		collectAdded(d.added, q, theta, func(av addedVal) {
			if ids := occLookup(occ, typ, av.val); len(ids) > 0 {
				out = append(out, ValueMatch{Value: av.val, Objects: ids, Dist: strdist.NormalizedRunes(q.runes, av.runes)})
			}
		})
	}
	return out
}

// occLookup returns occ[typ+"\x00"+val]. The key is assembled in a
// buffer on the stack and never becomes a string, so the lookups of the
// query paths allocate nothing (keys past the buffer spill to the heap).
func occLookup[S string | []byte](occ map[string][]int32, typ string, val S) []int32 {
	var buf [128]byte
	key := append(append(append(buf[:0], typ...), 0), val...)
	return occ[string(key)]
}

// occKeyOf builds the occurrence key of a (type, value) pair.
func occKeyOf(typ, val string) string {
	return typ + "\x00" + val
}

// appendPosting appends id to a sorted posting list. IDs assigned after
// Finalize always exceed every existing ID, so the append preserves
// order; the append never mutates bytes visible through previously
// returned slices (their length excludes the new element).
func appendPosting(ids []int32, id int32) []int32 {
	return append(ids, id)
}

// removePosting returns a copy of ids without id. It must copy: the old
// backing array aliases posting slices already handed to callers.
func removePosting(ids []int32, id int32) []int32 {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i == len(ids) || ids[i] != id {
		return ids
	}
	if len(ids) == 1 {
		return nil
	}
	out := make([]int32, 0, len(ids)-1)
	out = append(out, ids[:i]...)
	return append(out, ids[i+1:]...)
}

// validateRemovals checks a Remove batch up front so the mutation can be
// applied atomically: every id must be in [0, span), currently alive and
// unique within the batch.
func validateRemovals(span int32, alive func(int32) bool, ids []int32) error {
	seen := make(map[int32]bool, len(ids))
	for _, id := range ids {
		if id < 0 || id >= span {
			return fmt.Errorf("od: Remove: id %d out of range [0,%d)", id, span)
		}
		if seen[id] {
			return fmt.Errorf("od: Remove: id %d listed twice", id)
		}
		seen[id] = true
		if !alive(id) {
			return fmt.Errorf("od: Remove: id %d is not alive", id)
		}
	}
	return nil
}

// liveValueTable assembles the live value table of one type from its
// base index, its overlay and a postings lookup — the input both the
// scoped compaction rebuild and the exact Stats recomputation share.
// Returns nil when no value of the type has live postings.
func liveValueTable(base *typeIndex, d *typeDelta, postings func(val string) []int32) (map[string][]int32, int) {
	m := map[string][]int32{}
	maxLen := 0
	consider := func(v string) {
		ids := postings(v)
		if len(ids) == 0 {
			return
		}
		m[v] = ids
		if l := utf8.RuneCountInString(v); l > maxLen {
			maxLen = l
		}
	}
	if base != nil {
		for _, v := range base.values {
			consider(v)
		}
	}
	if d != nil {
		for _, av := range d.added {
			consider(av.val)
		}
	}
	if len(m) == 0 {
		return nil, 0
	}
	return m, maxLen
}
