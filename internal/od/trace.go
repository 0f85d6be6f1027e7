package od

import (
	"fmt"
	"slices"

	"repro/internal/od/odcodec"
)

// This file persists and restores the incremental-replay state —
// similarity traces per scored pair and filter-bound traces per object
// — alongside a snapshot, so a fresh process can replay them through
// Detector.Update instead of recomparing every surviving pair. The
// trace segment is bound to the exact store state it describes by
// manifest digest and delta sequence (see odcodec.TraceChain): a later
// Save or UpdateMeta rewrites the manifest, a later delta segment moves
// the store past the sequence, and either rejects the segment; a
// missing, stale or corrupt trace file only downgrades the next update
// to a full recompare. Every write is one patch frame (traceFrame): a
// whole write (SaveTraces) is the patch from the empty state, and an
// update of a DiskStore in its own directory appends the patch from
// the state its chain holds (AppendTraces), built from what the batch
// itself changed — the file is never read back to diff.

// The replay state has one form from the detector to the disk: the
// codec's.
type (
	// TraceSet is the replay state of one finished detection or update
	// run over a store, in that store's ID space.
	TraceSet = odcodec.TraceSet
	// TraceChain is the shape of a persisted trace chain.
	TraceChain = odcodec.TraceChain
	// PairTrace is one compared pair's similarity trace (replayed by
	// sim.ReplayScore).
	PairTrace = odcodec.PairTrace
	// FilterStep is one step of an object's filter-bound trace
	// (replayed by sim.ReplayFilter).
	FilterStep = odcodec.TraceFilterStep
)

// SaveTraces persists ts as the whole trace segment of the snapshot
// already committed in dir, remapping IDs exactly the way Save mapped
// the store's: identity for a DiskStore saved into its own directory
// (tombstoned slots keep their IDs; the segment records the delta
// sequence the store's live state ends at, unmerged deltas included),
// live-compacted for every exported backend (MemStore,
// foreign-directory DiskStore, PartitionedStore coordinator). Call it
// after Save/SavePartitioned — the segment chains to the manifest those
// committed. It returns the one-frame chain it wrote: the patch from
// the empty state, with every slot holding a filter trace refiltered
// and every pair between survivors rescored.
func SaveTraces(dir string, s Store, ts *TraceSet) (TraceChain, error) {
	if err := checkTraceSpan(s, ts); err != nil {
		return TraceChain{}, fmt.Errorf("od: save traces: %w", err)
	}
	digest, err := odcodec.ManifestDigest(dir)
	if err != nil {
		return TraceChain{}, fmt.Errorf("od: save traces: %w", err)
	}
	// A kept ID space carries every slot and the delta sequence the
	// store's live state ends at. A compacted one carries the store's
	// live set (not the run's survivor set — filter-pruned objects are
	// still live and keep slots), survival and filter traces moving with
	// their slots, and the manifest's delta watermark: a store reopened
	// from the export has nothing to replay.
	ids := snapshotIDs(dir, s)
	var seq uint64
	if ids.keep {
		seq = s.(*DiskStore).DeltaSeq()
	} else if seq, err = odcodec.ManifestDeltaSeq(dir); err != nil {
		return TraceChain{}, fmt.Errorf("od: save traces: %w", err)
	}
	var refiltered []int32
	for slot, steps := range ts.Filter {
		if steps != nil && ids.id(int32(slot)) >= 0 {
			refiltered = append(refiltered, int32(slot))
		}
	}
	rescored := make([]int64, 0, len(ts.Pairs))
	for key := range ts.Pairs {
		if i, j := UnpairKey(key); int(j) < len(ts.Alive) && ts.Alive[i] && ts.Alive[j] {
			rescored = append(rescored, key) // a non-survivor endpoint can never replay
		}
	}
	f := traceFrame(ts, ids, s.Size(), refiltered, nil, rescored)
	f.ManifestDigest, f.DeltaSeq = digest, seq
	chain, err := odcodec.WriteTraceFrame(dir, TraceChain{}, f)
	if err != nil {
		return TraceChain{}, fmt.Errorf("od: save traces: %w", err)
	}
	return chain, nil
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
	// come in any order; the frame builder sorts them in place.
	Rescored, Dropped []int64
	Refiltered        []int32
}

// AppendTraces persists up.Cur as the trace segment in dir and returns
// the chain it leaves. For a DiskStore in its own directory whose chain
// c the file still ends in — the last frame's CRC, read alone, and the
// manifest digest match c — it writes nothing when the batch changed
// nothing, and otherwise appends the patch from up.Prev holding only
// up's changes. Everything else (other backends, a foreign directory,
// no chain, a chain at odcodec.MaxTraceFrames, a file rewritten behind
// c) rewrites the whole segment, so the call is always safe and both
// paths accumulate to the same replay state.
func AppendTraces(dir string, s Store, c TraceChain, up *TraceUpdate) (TraceChain, error) {
	ds, ok := s.(*DiskStore)
	if !ok || !ds.InDir(dir) || c.Frames == 0 || up.Prev == nil {
		return SaveTraces(dir, s, up.Cur)
	}
	prev, cur := up.Prev, up.Cur
	if err := checkTraceSpan(s, cur); err != nil {
		return TraceChain{}, fmt.Errorf("od: append traces: %w", err)
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
	f := traceFrame(cur, idPlan{keep: true}, s.Size(), up.Refiltered, up.Dropped, up.Rescored)
	f.ManifestDigest, f.DeltaSeq = digest, seq
	chain, err := odcodec.WriteTraceFrame(dir, c, f)
	if err != nil {
		return TraceChain{}, fmt.Errorf("od: append traces: %w", err)
	}
	return chain, nil
}

// traceFrame builds the patch that takes the previous state to cur:
// cur's header and survival, the refiltered slots' traces, the dropped
// keys and the rescored pairs, numbered by ids — whose remap keeps
// order, so the sorted lists stay sorted — over a store of live
// objects. It sorts the lists in place; the caller sets the digest and
// delta sequence.
func traceFrame(cur *TraceSet, ids idPlan, live int, refiltered []int32, dropped, rescored []int64) *odcodec.TraceFrame {
	f := &odcodec.TraceFrame{
		Fingerprint: cur.Fingerprint,
		Size:        cur.Size,
		Alive:       cur.Alive,
		HasFilter:   cur.Filter != nil,
	}
	if ids.remap != nil {
		f.Alive = make([]bool, live)
		for id, to := range ids.remap {
			if to >= 0 {
				f.Alive[to] = cur.Alive[id]
			}
		}
	}
	key := func(k int64) int64 {
		i, j := UnpairKey(k)
		return PairKey(ids.id(i), ids.id(j))
	}
	if f.HasFilter {
		slices.Sort(refiltered)
		f.Filter = make([]odcodec.TraceFilterSlot, len(refiltered))
		for n, slot := range refiltered {
			f.Filter[n] = odcodec.TraceFilterSlot{Slot: ids.id(slot), Steps: cur.Filter[slot]}
		}
	}
	slices.Sort(dropped)
	for _, k := range dropped {
		f.Removed = append(f.Removed, key(k))
	}
	slices.Sort(rescored)
	f.Pairs = make([]odcodec.TracePair, len(rescored))
	for n, k := range rescored {
		f.Pairs[n] = odcodec.TracePair{Key: key(k), PairTrace: cur.Pairs[k]}
	}
	return f
}

// checkTraceSpan requires a trace set to cover exactly the store's ID
// span.
func checkTraceSpan(s Store, ts *TraceSet) error {
	span := storeSpan(s)
	if len(ts.Alive) != span {
		return fmt.Errorf("%d alive slots for ID span %d", len(ts.Alive), span)
	}
	if ts.Filter != nil && len(ts.Filter) != span {
		return fmt.Errorf("%d filter traces for ID span %d", len(ts.Filter), span)
	}
	return nil
}

// PairKey is the key of pair (i, j), i < j, in TraceSet.Pairs.
func PairKey(i, j int32) int64 { return int64(i)<<32 | int64(uint32(j)) }

// UnpairKey splits a pair key into its two IDs.
func UnpairKey(k int64) (int32, int32) { return int32(k >> 32), int32(uint32(k)) }

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

// LoadTraces restores the trace segment recorded against the snapshot s
// was opened from. It returns (nil, nil) when s is not a DiskStore or
// its directory carries no trace file, and a
// non-nil error for every rejected trace — corrupt framing, manifest
// digest divergence (the snapshot was rewritten after the trace), a
// DiskStore whose deltas end at another sequence than the trace records
// (written or replayed past it: the live state moved on), or a
// live-count, span or survivor mismatch. Unmerged deltas replayed at
// open are accepted exactly when the trace records the sequence they
// end at. Callers treat any nil TraceSet as "full recompare"; the error
// only attributes why.
func LoadTraces(s Store) (*TraceSet, error) {
	ds, ok := s.(*DiskStore)
	if !ok {
		return nil, nil
	}
	ts, err := odcodec.ReadTrace(ds.dir)
	if err != nil || ts == nil {
		return nil, err
	}
	digest, err := odcodec.ManifestDigest(ds.dir)
	if err != nil {
		return nil, fmt.Errorf("od: load traces: %w", err)
	}
	if ts.Chain.ManifestDigest != digest {
		return nil, fmt.Errorf("od: load traces: trace segment chains to a different snapshot (stale trace)")
	}
	if ts.Chain.DeltaSeq != ds.DeltaSeq() {
		return nil, fmt.Errorf("od: load traces: trace describes delta sequence %d, store is at %d", ts.Chain.DeltaSeq, ds.DeltaSeq())
	}
	if ts.Size != s.Size() {
		return nil, fmt.Errorf("od: load traces: trace describes %d live objects, store has %d", ts.Size, s.Size())
	}
	if span := storeSpan(s); len(ts.Alive) != span {
		return nil, fmt.Errorf("od: load traces: trace spans %d slots, store spans %d", len(ts.Alive), span)
	}
	// Survivors must still be live slots. (The trace's survivor set is
	// a subset of the live set — filter-pruned objects are live but not
	// survivors — so the check is one-directional; size and span above
	// already pin the live state itself.)
	alive := aliveFunc(s)
	for id, a := range ts.Alive {
		if a && !alive(int32(id)) {
			return nil, fmt.Errorf("od: load traces: trace survivor %d is not live in the store", id)
		}
	}
	for key := range ts.Pairs {
		if i, j := UnpairKey(key); !ts.Alive[i] || !ts.Alive[j] {
			delete(ts.Pairs, key) // defensive: the codec validated the span, not liveness
		}
	}
	return ts, nil
}
