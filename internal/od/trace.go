package od

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/od/odcodec"
)

// This file persists and restores the incremental-replay state —
// similarity traces per scored pair and filter-bound traces per object
// — alongside a snapshot, so a fresh process can replay them through
// Detector.Update instead of recomparing every surviving pair. The
// trace segment is bound to the exact store state it describes by
// manifest digest and delta sequence (see odcodec.TraceSet): a later
// Save or UpdateMeta rewrites the manifest, a later delta segment moves
// the store past the sequence, and either rejects the segment; a
// missing, stale or corrupt trace file only downgrades the next update
// to a full recompare. An update of a DiskStore in its own directory
// appends one delta frame per batch (AppendTraces), encoded from what
// the batch itself changed — the file is never read back to diff.

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
	// recorded); nil entirely when the run computed no bounds (no
	// UseFilter, no KeepFilterValues).
	Filter [][]FilterStep
	// Chain is the shape of the persisted chain LoadTraces read the set
	// from (zero for a set built in memory). SaveTraces and AppendTraces
	// ignore it and return the shape they leave.
	Chain TraceChain
}

// TraceChain is the shape of a persisted trace chain: what the next
// append must link to, and the store state the chain describes. The
// zero value means no chain is known.
type TraceChain struct {
	Frames         int    // frames in the chain; 0 = none known
	LastCRC        uint32 // footer CRC of the last frame
	DeltaSeq       uint64 // store delta sequence the chain describes
	ManifestDigest string // manifest the chain is bound to
}

// maxTraceFrames bounds the trace chain: the update whose frame would
// make the chain this long rewrites it as one frame instead — after
// merging its delta segments, on a DiskStore in its own directory — so
// the load cost and the deltas a reopen replays are bounded by the
// chain, not by update history.
const maxTraceFrames = 8

// Appendable reports whether an update may extend the chain by one
// delta frame: a chain is known and stays below maxTraceFrames.
func (c TraceChain) Appendable() bool { return c.Frames > 0 && c.Frames+1 < maxTraceFrames }

// SaveTraces persists ts as the whole trace segment of the snapshot
// already committed in dir, remapping IDs exactly the way Save mapped
// the store's: identity for a DiskStore saved into its own directory
// (tombstoned slots keep their IDs; the segment records the delta
// sequence the store's live state ends at, unmerged deltas included),
// live-compacted for every exported backend (MemStore,
// foreign-directory DiskStore, PartitionedStore coordinator). Call it
// after Save/SavePartitioned — the segment chains to the manifest those
// committed. It returns the one-frame chain it wrote.
func SaveTraces(dir string, s Store, ts *TraceSet) (TraceChain, error) {
	span := storeSpan(s)
	if len(ts.Alive) != span {
		return TraceChain{}, fmt.Errorf("od: save traces: %d alive slots for ID span %d", len(ts.Alive), span)
	}
	if ts.Filter != nil && len(ts.Filter) != span {
		return TraceChain{}, fmt.Errorf("od: save traces: %d filter traces for ID span %d", len(ts.Filter), span)
	}
	digest, err := odcodec.ManifestDigest(dir)
	if err != nil {
		return TraceChain{}, fmt.Errorf("od: save traces: %w", err)
	}

	out := &odcodec.TraceSet{
		ManifestDigest: digest,
		Fingerprint:    ts.Fingerprint,
		Size:           ts.Size,
	}
	// A kept ID space carries every slot and the delta sequence the
	// store's live state ends at. A compacted one carries the store's
	// live set (not the run's survivor set — filter-pruned objects are
	// still live and keep slots), survival and filter traces moving with
	// their slots, and the manifest's delta watermark: a store reopened
	// from the export has nothing to replay.
	ids := snapshotIDs(dir, s)
	slots := s.Size()
	if ids.keep {
		slots = span
		out.DeltaSeq = s.(*DiskStore).DeltaSeq()
	} else if out.DeltaSeq, err = odcodec.ManifestDeltaSeq(dir); err != nil {
		return TraceChain{}, fmt.Errorf("od: save traces: %w", err)
	}
	live := aliveFunc(s)
	out.Alive = make([]bool, slots)
	if ts.Filter != nil {
		out.Filters = make([][]odcodec.TraceFilterStep, slots)
	}
	for id := int32(0); id < int32(span); id++ {
		if ids.keep || live(id) {
			out.Alive[ids.id(id)] = ts.Alive[id]
			if out.Filters != nil {
				out.Filters[ids.id(id)] = encodeSteps(ts.Filter[id])
			}
		}
	}
	out.Pairs = make([]odcodec.TracePair, 0, len(ts.Pairs))
	for key, tr := range ts.Pairs {
		i, j := int32(key>>32), int32(key&0xffffffff)
		if int(j) >= span || !ts.Alive[i] || !ts.Alive[j] {
			continue // defensive: a non-survivor endpoint can never replay
		}
		key = int64(ids.id(i))<<32 | int64(uint32(ids.id(j)))
		out.Pairs = append(out.Pairs, odcodec.TracePair{Key: uint64(key), SimU: tr.SimU, ConU: tr.ConU})
	}
	sort.Slice(out.Pairs, func(a, b int) bool { return out.Pairs[a].Key < out.Pairs[b].Key })
	crc, err := odcodec.WriteTrace(dir, out)
	if err != nil {
		return TraceChain{}, fmt.Errorf("od: save traces: %w", err)
	}
	return TraceChain{Frames: 1, LastCRC: crc, DeltaSeq: out.DeltaSeq, ManifestDigest: digest}, nil
}

// TraceUpdate is what one update batch changed in the replay state, as
// the batch's own stages decided it; nothing diffs the pair maps.
type TraceUpdate struct {
	// Prev is the state the extended chain accumulates to, Cur the state
	// after the batch.
	Prev, Cur *TraceSet
	// Rescored lists the keys of Cur.Pairs the batch compared for real,
	// Dropped the keys of Prev.Pairs missing from Cur.Pairs; every other
	// pair trace is the same in both states. Refiltered lists the slots
	// whose filter trace the batch recorded anew or cleared. The lists
	// come in any order; AppendTraces sorts them in place.
	Rescored, Dropped []int64
	Refiltered        []int32
}

// AppendTraces persists up.Cur as the trace segment in dir and returns
// the chain it leaves. For a DiskStore in its own directory whose chain
// c the file still ends in — the last frame's CRC, read alone, and the
// manifest digest match c — it writes nothing when the batch changed
// nothing, and otherwise appends one delta frame holding only up's
// changes, encoded from memory against up.Prev. Everything else (other
// backends, a foreign directory, no chain, a chain at maxTraceFrames, a
// file rewritten behind c) rewrites the whole segment, so the call is
// always safe and both paths accumulate to the same replay state.
func AppendTraces(dir string, s Store, c TraceChain, up *TraceUpdate) (TraceChain, error) {
	ds, ok := s.(*DiskStore)
	if !ok || !ds.InDir(dir) || c.Frames == 0 || up.Prev == nil {
		return SaveTraces(dir, s, up.Cur)
	}
	prev, cur := up.Prev, up.Cur
	span := storeSpan(s)
	if len(cur.Alive) != span {
		return TraceChain{}, fmt.Errorf("od: append traces: %d alive slots for ID span %d", len(cur.Alive), span)
	}
	if cur.Filter != nil && len(cur.Filter) != span {
		return TraceChain{}, fmt.Errorf("od: append traces: %d filter traces for ID span %d", len(cur.Filter), span)
	}
	digest, err := odcodec.ManifestDigest(dir)
	if err != nil {
		return TraceChain{}, fmt.Errorf("od: append traces: %w", err)
	}
	if crc, err := odcodec.LastTraceCRC(dir); err != nil || crc != c.LastCRC || digest != c.ManifestDigest {
		return SaveTraces(dir, s, cur)
	}
	seq := ds.DeltaSeq()
	if len(up.Rescored)+len(up.Dropped)+len(up.Refiltered) == 0 && seq == c.DeltaSeq &&
		cur.Size == prev.Size && cur.Fingerprint == prev.Fingerprint &&
		(cur.Filter == nil) == (prev.Filter == nil) && slices.Equal(cur.Alive, prev.Alive) {
		return c, nil // the chain already holds exactly this state
	}
	if !c.Appendable() {
		return SaveTraces(dir, s, cur)
	}

	d := &odcodec.TraceDelta{
		PrevCRC:        c.LastCRC,
		ManifestDigest: digest,
		Fingerprint:    cur.Fingerprint,
		DeltaSeq:       seq,
		Size:           cur.Size,
		Alive:          cur.Alive,
		DropFilters:    prev.Filter != nil && cur.Filter == nil,
	}
	if cur.Filter != nil {
		slices.Sort(up.Refiltered)
		for _, slot := range up.Refiltered {
			d.FilterUpdates = append(d.FilterUpdates, odcodec.TraceFilterUpdate{Slot: slot, Steps: encodeSteps(cur.Filter[slot])})
		}
	}
	slices.Sort(up.Dropped)
	for _, key := range up.Dropped {
		d.RemovedPairs = append(d.RemovedPairs, uint64(key))
	}
	slices.Sort(up.Rescored)
	for _, key := range up.Rescored {
		tr := cur.Pairs[key]
		d.Pairs = append(d.Pairs, odcodec.TracePair{Key: uint64(key), SimU: tr.SimU, ConU: tr.ConU})
	}
	crc, err := odcodec.AppendTraceDelta(dir, d)
	if err != nil {
		return TraceChain{}, fmt.Errorf("od: append traces: %w", err)
	}
	return TraceChain{Frames: c.Frames + 1, LastCRC: crc, DeltaSeq: seq, ManifestDigest: digest}, nil
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

// encodeSteps converts one slot's filter-bound trace; nil stays nil.
func encodeSteps(steps []FilterStep) []odcodec.TraceFilterStep {
	if steps == nil {
		return nil
	}
	enc := make([]odcodec.TraceFilterStep, len(steps))
	for k, st := range steps {
		enc[k] = odcodec.TraceFilterStep{Shared: st.Shared, Union: st.Union}
	}
	return enc
}

// LoadTraces restores the trace segment recorded against the snapshot s
// was opened from. It returns (nil, nil) when the store has no backing
// snapshot directory or the directory carries no trace file, and a
// non-nil error for every rejected trace — corrupt framing, manifest
// digest divergence (the snapshot was rewritten after the trace), a
// DiskStore whose deltas end at another sequence than the trace records
// (written or replayed past it: the live state moved on), or a
// live-count, span or survivor mismatch. Unmerged deltas replayed at
// open are accepted exactly when the trace records the sequence they
// end at. Callers treat any nil TraceSet as "full recompare"; the error
// only attributes why.
func LoadTraces(s Store) (*TraceSet, error) {
	var dir string
	var ds *DiskStore
	switch st := s.(type) {
	case *DiskStore:
		ds, dir = st, st.dir
	case *PartitionedStore:
		if st.snapDir == "" {
			return nil, nil
		}
		dir = st.snapDir
	default:
		return nil, nil
	}
	raw, info, err := odcodec.ReadTraceChain(dir)
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
	if ds != nil && raw.DeltaSeq != ds.DeltaSeq() {
		return nil, fmt.Errorf("od: load traces: trace describes delta sequence %d, store is at %d", raw.DeltaSeq, ds.DeltaSeq())
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
		Chain:       TraceChain{Frames: info.Frames, LastCRC: info.LastCRC, DeltaSeq: raw.DeltaSeq, ManifestDigest: raw.ManifestDigest},
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
