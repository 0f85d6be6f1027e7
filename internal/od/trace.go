package od

import (
	"fmt"
	"sort"

	"repro/internal/od/odcodec"
)

// This file persists and restores the incremental-replay state —
// similarity traces per scored pair and filter-bound traces per object
// — alongside a snapshot, so a fresh process can replay them through
// Detector.Update instead of recomparing every surviving pair. The
// trace segment is chained to the snapshot by manifest digest (see
// odcodec.TraceSet): any later Save or UpdateMeta rewrites the manifest
// and automatically invalidates it, and a missing, stale or corrupt
// trace file only downgrades the next update to a full recompare.

// PairTrace records what one comparison took from the store: the
// occurrence-union sizes behind each matched pair's softIDF term, in
// accumulation order. The matching itself depends only on the two ODs'
// tuple values (edit distances, deterministic tie-breaks) — never on
// the store — so as long as neither OD's exact tuple postings change,
// the score under a different corpus size |ΩT| replays from the trace
// bit-identically (sim.ReplayScore).
type PairTrace struct {
	SimU []int32 // |O_a ∪ O_b| per similar match (ODT≈), in match order
	ConU []int32 // likewise for contradictory matches (ODT≠)
}

// FilterStep is one non-empty tuple's contribution to a traced filter
// bound: whether the tuple was shared and the occurrence-union size its
// softIDF term derives from. While none of the postings behind a
// tuple's θtuple-similar values change, the bound under a new corpus
// size replays from the steps bit-identically (sim.ReplayFilter).
type FilterStep struct {
	Shared bool
	Union  int32
}

// TraceSet is the replay state of one finished detection or update run
// over a store, in that store's ID space.
type TraceSet struct {
	// Fingerprint is the corpus-chain fingerprint of the run ("" when
	// the run carried no provenance); it seeds the update fingerprint
	// chain across restarts.
	Fingerprint string
	// Size is the store's live object count.
	Size int
	// Alive is the run's post-reduce survival per slot over
	// [0, IDSpan): false for removed IDs and for objects the Step 4
	// filter pruned. Survivors are always store-live, but not every
	// live object survives.
	Alive []bool
	// Pairs maps pair keys (int64(i)<<32|j, i<j) to similarity traces.
	// Both endpoints must be survivors.
	Pairs map[int64]PairTrace
	// Filter holds per-slot filter-bound traces (nil slot = none
	// recorded); nil entirely when the run replayed persisted filter
	// values instead of recording bounds.
	Filter [][]FilterStep
}

// SaveTraces persists ts as the trace segment of the snapshot already
// committed in dir, remapping IDs exactly the way Save mapped the
// store's: identity for a DiskStore saved into its own directory
// (tombstoned slots keep their IDs), live-compacted for every exported
// backend (MemStore, foreign-directory DiskStore, PartitionedStore
// coordinator). Call it after Save/SavePartitioned —
// the segment chains to the manifest those committed.
func SaveTraces(dir string, s Store, ts *TraceSet) error {
	span := storeSpan(s)
	if len(ts.Alive) != span {
		return fmt.Errorf("od: save traces: %d alive slots for ID span %d", len(ts.Alive), span)
	}
	if ts.Filter != nil && len(ts.Filter) != span {
		return fmt.Errorf("od: save traces: %d filter traces for ID span %d", len(ts.Filter), span)
	}
	digest, err := odcodec.ManifestDigest(dir)
	if err != nil {
		return fmt.Errorf("od: save traces: %w", err)
	}

	out := &odcodec.TraceSet{
		ManifestDigest: digest,
		Fingerprint:    ts.Fingerprint,
		Size:           ts.Size,
	}
	identity := false
	if ds, ok := s.(*DiskStore); ok && sameDir(ds.dir, dir) {
		identity = true
	}
	var remap []int32
	if identity {
		out.Alive = ts.Alive
		if ts.Filter != nil {
			out.Filters = encodeFilters(ts.Filter)
		}
	} else {
		// The exported snapshot compacted IDs over the store's live
		// set (not the run's survivor set — filter-pruned objects are
		// still live and keep slots), so the trace compacts the same
		// way and carries survival per compacted slot.
		live := aliveFunc(s)
		remap = buildRemap(int32(span), live)
		out.Alive = make([]bool, s.Size())
		for id := 0; id < span; id++ {
			if live(int32(id)) {
				out.Alive[remap[id]] = ts.Alive[id]
			}
		}
		if ts.Filter != nil {
			filter := make([][]FilterStep, s.Size())
			for id, steps := range ts.Filter {
				if live(int32(id)) {
					filter[remap[id]] = steps
				}
			}
			out.Filters = encodeFilters(filter)
		}
	}
	out.Pairs = make([]odcodec.TracePair, 0, len(ts.Pairs))
	for key, tr := range ts.Pairs {
		i, j := int32(key>>32), int32(key&0xffffffff)
		if int(j) >= span || !ts.Alive[i] || !ts.Alive[j] {
			continue // defensive: a non-survivor endpoint can never replay
		}
		if remap != nil {
			key = int64(remap[i])<<32 | int64(uint32(remap[j]))
		}
		out.Pairs = append(out.Pairs, odcodec.TracePair{Key: uint64(key), SimU: tr.SimU, ConU: tr.ConU})
	}
	sort.Slice(out.Pairs, func(a, b int) bool { return out.Pairs[a].Key < out.Pairs[b].Key })
	if err := odcodec.WriteTrace(dir, out); err != nil {
		return fmt.Errorf("od: save traces: %w", err)
	}
	return nil
}

// maxTraceFrames bounds the trace chain length: an update that finds
// the chain already this long compacts it back to a single frame
// (WriteTrace) instead of appending another delta, so load cost stays
// proportional to the state, not to update history.
const maxTraceFrames = 8

// AppendTraces persists ts like SaveTraces, but for a DiskStore
// updated in place in its own snapshot directory it appends a delta
// frame to the existing trace chain — carrying only the pairs and
// filter slots that changed — instead of rewriting the whole segment.
// Everything else (foreign backends, a missing or unreadable chain, a
// chain at maxTraceFrames, a delta comparable in size to the full
// state) falls back to the whole rewrite, so the call is always safe
// and the two paths accumulate to identical replay state.
func AppendTraces(dir string, s Store, ts *TraceSet) error {
	ds, ok := s.(*DiskStore)
	if !ok || !sameDir(ds.dir, dir) {
		return SaveTraces(dir, s, ts)
	}
	span := storeSpan(s)
	if len(ts.Alive) != span {
		return fmt.Errorf("od: append traces: %d alive slots for ID span %d", len(ts.Alive), span)
	}
	if ts.Filter != nil && len(ts.Filter) != span {
		return fmt.Errorf("od: append traces: %d filter traces for ID span %d", len(ts.Filter), span)
	}
	// The on-disk chain is the authoritative "previous" state: the delta
	// is computed against what a future ReadTrace will actually
	// accumulate, so appending it always lands exactly on ts no matter
	// how the chain got here. Any read problem just means full rewrite.
	base, info, err := odcodec.ReadTraceChain(dir)
	if err != nil || base == nil || len(base.Alive) > span || info.Frames >= maxTraceFrames {
		return SaveTraces(dir, s, ts)
	}
	d, small := diffTraces(base, ts, span)
	if !small {
		return SaveTraces(dir, s, ts)
	}
	digest, err := odcodec.ManifestDigest(dir)
	if err != nil {
		return fmt.Errorf("od: append traces: %w", err)
	}
	d.PrevCRC = info.LastCRC
	d.ManifestDigest = digest
	d.Fingerprint = ts.Fingerprint
	d.Size = ts.Size
	d.Alive = ts.Alive
	if err := odcodec.AppendTraceDelta(dir, d); err != nil {
		return fmt.Errorf("od: append traces: %w", err)
	}
	return nil
}

// diffTraces computes the delta frame turning the accumulated on-disk
// state into ts. The second result is false when a delta is not
// worthwhile: the changed set rivals the full state, or the filter
// sections differ in a way the delta format cannot express compactly
// (bound traces appearing where the chain recorded none).
func diffTraces(base *odcodec.TraceSet, ts *TraceSet, span int) (*odcodec.TraceDelta, bool) {
	d := &odcodec.TraceDelta{}
	switch {
	case ts.Filter == nil && base.Filters == nil:
		// no filter traces on either side
	case ts.Filter == nil:
		d.DropFilters = true
	case base.Filters == nil:
		return nil, false
	default:
		for id := 0; id < span; id++ {
			var prev []odcodec.TraceFilterStep
			if id < len(base.Filters) {
				prev = base.Filters[id]
			}
			if filterSlotEqual(prev, ts.Filter[id]) {
				continue
			}
			var enc []odcodec.TraceFilterStep
			if steps := ts.Filter[id]; steps != nil {
				enc = make([]odcodec.TraceFilterStep, len(steps))
				for k, st := range steps {
					enc[k] = odcodec.TraceFilterStep{Shared: st.Shared, Union: st.Union}
				}
			}
			d.FilterUpdates = append(d.FilterUpdates, odcodec.TraceFilterUpdate{Slot: int32(id), Steps: enc})
		}
	}

	cur := make([]odcodec.TracePair, 0, len(ts.Pairs))
	for key, tr := range ts.Pairs {
		i, j := int32(key>>32), int32(key&0xffffffff)
		if int(j) >= span || !ts.Alive[i] || !ts.Alive[j] {
			continue // defensive: a non-survivor endpoint can never replay
		}
		cur = append(cur, odcodec.TracePair{Key: uint64(key), SimU: tr.SimU, ConU: tr.ConU})
	}
	sort.Slice(cur, func(a, b int) bool { return cur[a].Key < cur[b].Key })
	bi := 0
	for _, p := range cur {
		for bi < len(base.Pairs) && base.Pairs[bi].Key < p.Key {
			d.RemovedPairs = append(d.RemovedPairs, base.Pairs[bi].Key)
			bi++
		}
		if bi < len(base.Pairs) && base.Pairs[bi].Key == p.Key {
			if !unionsEqual(base.Pairs[bi].SimU, p.SimU) || !unionsEqual(base.Pairs[bi].ConU, p.ConU) {
				d.Pairs = append(d.Pairs, p)
			}
			bi++
			continue
		}
		d.Pairs = append(d.Pairs, p)
	}
	for ; bi < len(base.Pairs); bi++ {
		d.RemovedPairs = append(d.RemovedPairs, base.Pairs[bi].Key)
	}
	if len(d.Pairs)+len(d.RemovedPairs) > len(cur)/2+16 {
		return nil, false
	}
	return d, true
}

// filterSlotEqual compares one on-disk filter-bound trace with its
// in-memory counterpart; nil (no trace recorded) only equals nil.
func filterSlotEqual(prev []odcodec.TraceFilterStep, cur []FilterStep) bool {
	if (prev == nil) != (cur == nil) || len(prev) != len(cur) {
		return false
	}
	for k := range prev {
		if prev[k].Shared != cur[k].Shared || prev[k].Union != cur[k].Union {
			return false
		}
	}
	return true
}

// unionsEqual compares union slices, treating nil as empty — the codec
// decodes an empty union side as nil regardless of how it was written.
func unionsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// storeSpan is the store's ID span: IDSpan for mutable backends, the
// live count for stores with no hole-bearing ID space.
func storeSpan(s Store) int {
	if ms, ok := s.(MutableStore); ok {
		return int(ms.IDSpan())
	}
	return s.Size()
}

// aliveFunc is the store's slot-liveness predicate.
func aliveFunc(s Store) func(int32) bool {
	if ms, ok := s.(MutableStore); ok {
		return ms.Alive
	}
	return func(int32) bool { return true }
}

func encodeFilters(filter [][]FilterStep) [][]odcodec.TraceFilterStep {
	out := make([][]odcodec.TraceFilterStep, len(filter))
	for i, steps := range filter {
		if steps == nil {
			continue
		}
		enc := make([]odcodec.TraceFilterStep, len(steps))
		for k, st := range steps {
			enc[k] = odcodec.TraceFilterStep{Shared: st.Shared, Union: st.Union}
		}
		out[i] = enc
	}
	return out
}

// LoadTraces restores the trace segment recorded against the snapshot s
// was opened from. It returns (nil, nil) when the store has no backing
// snapshot directory or the directory carries no trace file, and a
// non-nil error for every rejected trace — corrupt framing, manifest
// digest divergence (the snapshot was rewritten after the trace), or a
// store whose live state no longer matches (replayed delta segments,
// post-open mutations). Callers treat any nil TraceSet as "full
// recompare"; the error only attributes why.
func LoadTraces(s Store) (*TraceSet, error) {
	var dir string
	switch st := s.(type) {
	case *DiskStore:
		if st.dirty {
			return nil, fmt.Errorf("od: load traces: store has unmerged mutations")
		}
		dir = st.dir
	case *PartitionedStore:
		if st.snapDir == "" {
			return nil, nil
		}
		dir = st.snapDir
	default:
		return nil, nil
	}
	raw, err := odcodec.ReadTrace(dir)
	if err != nil {
		return nil, err
	}
	if raw == nil {
		return nil, nil
	}
	digest, err := odcodec.ManifestDigest(dir)
	if err != nil {
		return nil, fmt.Errorf("od: load traces: %w", err)
	}
	if raw.ManifestDigest != digest {
		return nil, fmt.Errorf("od: load traces: trace segment chains to a different snapshot (stale trace)")
	}
	if raw.Size != s.Size() {
		return nil, fmt.Errorf("od: load traces: trace describes %d live objects, store has %d", raw.Size, s.Size())
	}
	if span := storeSpan(s); len(raw.Alive) != span {
		return nil, fmt.Errorf("od: load traces: trace spans %d slots, store spans %d", len(raw.Alive), span)
	}
	// Survivors must still be live slots. (The trace's survivor set is
	// a subset of the live set — filter-pruned objects are live but not
	// survivors — so the check is one-directional; size and span above
	// already pin the live state itself.)
	alive := aliveFunc(s)
	for id, a := range raw.Alive {
		if a && !alive(int32(id)) {
			return nil, fmt.Errorf("od: load traces: trace survivor %d is not live in the store", id)
		}
	}
	ts := &TraceSet{
		Fingerprint: raw.Fingerprint,
		Size:        raw.Size,
		Alive:       raw.Alive,
		Pairs:       make(map[int64]PairTrace, len(raw.Pairs)),
	}
	if raw.Filters != nil {
		ts.Filter = make([][]FilterStep, len(raw.Filters))
		for i, steps := range raw.Filters {
			if steps == nil {
				continue
			}
			dec := make([]FilterStep, len(steps))
			for k, st := range steps {
				dec[k] = FilterStep{Shared: st.Shared, Union: st.Union}
			}
			ts.Filter[i] = dec
		}
	}
	for _, p := range raw.Pairs {
		i, j := int32(p.Key>>32), int32(p.Key&0xffffffff)
		if !raw.Alive[i] || !raw.Alive[j] {
			continue // defensive: codec validated the span, not liveness
		}
		ts.Pairs[int64(p.Key)] = PairTrace{SimU: p.SimU, ConU: p.ConU}
	}
	return ts, nil
}
