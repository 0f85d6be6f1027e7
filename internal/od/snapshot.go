package od

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/od/odcodec"
)

// This file is the one writer of base segments. A snapshot is a store's
// live state — its OD records in ID order, then every type with a live
// value in name order, the values ascending with their live postings —
// and every path that persists one streams it through writeSnapshot:
// the fresh DiskStore build, Save's export of any backend, the in-place
// merge of a DiskStore's overlay and the federation coordinator's
// object directory. The paths differ only in where they read the live
// state from (snapshotSource) and in how the slots are numbered, which
// snapshotIDs decides once for Save and SaveTraces alike.

// SnapshotMeta is the provenance a snapshot is stamped with when saved.
type SnapshotMeta struct {
	// Fingerprint identifies the corpus + detection configuration the
	// indexes were built from (internal/core computes it); warm starts
	// require an exact match.
	Fingerprint string
}

// Save persists a finalized store into dir in the DiskStore segment
// format, so a later OpenDiskStore (or the pipeline's warm-start path)
// restores it without rebuilding any index. Every backend can be saved,
// and the snapshot commits atomically — its manifest is written last.
//
// A DiskStore saving into its own directory — by any path to it, see
// snapshotIDs — keeps its ID space. Unmutated, only its manifest is
// re-stamped with the meta; mutated, it is *merged in place*: the
// overlay folds into fresh base segments, removed slots persist as stub
// records listed in the manifest's tombstone set, the delta watermark
// advances past every folded segment and the stale delta files are
// deleted. The in-process store re-points itself at the merged base
// and stays fully usable — queries and further AddAfterFinalize/Remove
// batches continue with the same IDs, and a reopen reproduces the exact
// same state.
//
// Every other save exports the store's live set with the ID space
// compacted (holes from Remove close up, order preserved), so the
// snapshot is byte for byte a fresh build over the live objects.
func Save(dir string, s Store, meta SnapshotMeta) error {
	ids := snapshotIDs(dir, s)
	if ids.keep {
		return s.(*DiskStore).mergeInPlace(meta)
	}
	src, ok := s.(interface{ snapshotSource() snapshotSource })
	if !ok {
		return fmt.Errorf("od: save: backend %T cannot be snapshotted", s)
	}
	return writeSnapshot(dir, src.snapshotSource(), ids, meta.Fingerprint)
}

// idPlan is how a save numbers the store's slots in the snapshot.
type idPlan struct {
	// keep keeps the store's ID space: a dead slot persists as an empty
	// stub record listed in the manifest's tombstone set.
	keep bool
	// remap maps each live slot to its compacted ID when a store with
	// holes is compacted; nil numbers the slots as they are.
	remap []int32
}

// id returns the snapshot ID of slot id, which must be live unless IDs
// are kept.
func (p idPlan) id(id int32) int32 {
	if p.remap == nil {
		return id
	}
	return p.remap[id]
}

// snapshotIDs is the one place that decides how a save of s into dir
// numbers its slots; Save and SaveTraces both ask it, so a snapshot and
// its trace segment always agree. A DiskStore saving into its own
// directory keeps its IDs, every other save compacts them over the live
// set. "Its own directory" means the same directory, not the same path
// string: when both exist, os.SameFile on their os.Stat results decides
// (a symlink or a second path to the store's directory counts), and only
// a target that does not exist yet falls back to comparing absolute
// paths.
func snapshotIDs(dir string, s Store) idPlan {
	if ds, ok := s.(*DiskStore); ok {
		own, err1 := os.Stat(ds.dir)
		target, err2 := os.Stat(dir)
		if err1 == nil && err2 == nil {
			if os.SameFile(own, target) {
				return idPlan{keep: true}
			}
		} else if a, err1 := filepath.Abs(ds.dir); err1 == nil {
			if b, err2 := filepath.Abs(dir); err2 == nil && a == b {
				return idPlan{keep: true}
			}
		}
	}
	if span := storeSpan(s); span != s.Size() {
		return idPlan{remap: buildRemap(int32(span), aliveFunc(s))}
	}
	return idPlan{}
}

// buildRemap maps each live old ID to its compacted snapshot ID.
func buildRemap(span int32, alive func(int32) bool) []int32 {
	remap := make([]int32, span)
	next := int32(0)
	for id := int32(0); id < span; id++ {
		if alive(id) {
			remap[id] = next
			next++
		} else {
			remap[id] = -1
		}
	}
	return remap
}

// snapshotSource is a store's live state as writeSnapshot reads it, each
// part exactly once.
type snapshotSource struct {
	theta float64
	span  int32               // slots in ID order, live and dead
	alive func(id int32) bool // nil: every slot is live
	seq   uint64              // the store's own delta sequence, stamped when IDs are kept
	// record returns a live slot's OD as the codec stores it; the
	// tuples may be appended to buf.
	record func(id int32, buf []odcodec.Tuple) (object string, source int32, tuples []odcodec.Tuple, err error)
	// types lists every type that may hold a live value, in any order.
	types []string
	// table returns one type's exact live maximum value length and a
	// scan of its values.
	table func(typ string) (maxLen int, scan valueScan, err error)
}

// valueScan emits one type's values in ascending order, each with its
// posting list in the store's ID space. A value whose list is empty is
// not live and is skipped; emit must not keep ids.
type valueScan func(emit func(v string, ids []int32) error) error

// writeSnapshot writes src's live state into dir as a new base snapshot,
// numbered by ids, and commits it. A type is written when its first
// live value arrives, with the edit budget of its live maximum length.
// The manifest is stamped with the store's own delta sequence and
// tombstones when IDs are kept — the folded deltas are the store's own —
// and otherwise with the highest stale delta in dir, so no leftover of
// an earlier store can replay onto the new base; the folded deltas are
// deleted.
func writeSnapshot(dir string, src snapshotSource, ids idPlan, fingerprint string) error {
	w, err := odcodec.NewWriter(dir)
	if err != nil {
		return err
	}
	defer w.Abort()
	var tombstones []int32
	var buf []odcodec.Tuple
	for id := int32(0); id < src.span; id++ {
		object, source, tuples := "", int32(0), []odcodec.Tuple(nil)
		switch {
		case src.alive == nil || src.alive(id):
			if object, source, tuples, err = src.record(id, buf[:0]); err != nil {
				return err
			}
			buf = tuples
		case ids.keep:
			tombstones = append(tombstones, id) // the empty stub keeps the slot
		default:
			continue
		}
		if err := w.AddOD(object, source, tuples); err != nil {
			return err
		}
	}
	slices.Sort(src.types)
	var remapped []int32
	for _, typ := range src.types {
		maxLen, scan, err := src.table(typ)
		if err != nil {
			return err
		}
		begun := false
		err = scan(func(v string, postings []int32) error {
			if len(postings) == 0 {
				return nil
			}
			if !begun {
				begun = true
				if err := w.BeginType(typ, maxLen, editBudget(src.theta, maxLen)); err != nil {
					return err
				}
			}
			if ids.remap != nil {
				remapped = remapped[:0]
				for _, id := range postings {
					remapped = append(remapped, ids.remap[id])
				}
				postings = remapped
			}
			return w.AddValue(v, postings)
		})
		if err != nil {
			return err
		}
	}
	meta := odcodec.Meta{Fingerprint: fingerprint, Theta: src.theta, DeltaSeq: src.seq, Tombstones: tombstones}
	if !ids.keep {
		if meta.DeltaSeq, err = odcodec.MaxDeltaSeq(dir); err != nil {
			return err
		}
	}
	if err := w.Commit(meta); err != nil {
		return err
	}
	odcodec.RemoveDeltas(dir, meta.DeltaSeq)
	return nil
}

// odsRecords reads slot records from an in-memory OD slice.
func odsRecords(ods []*OD) func(int32, []odcodec.Tuple) (string, int32, []odcodec.Tuple, error) {
	return func(id int32, buf []odcodec.Tuple) (string, int32, []odcodec.Tuple, error) {
		o := ods[id]
		return o.Object, int32(o.Source), appendCodecTuples(buf, o), nil
	}
}

// appendCodecTuples appends o's tuples to buf as the codec stores them.
func appendCodecTuples(buf []odcodec.Tuple, o *OD) []odcodec.Tuple {
	for _, t := range o.Tuples {
		buf = append(buf, odcodec.Tuple{Value: t.Value, Name: t.Name, Type: t.Type})
	}
	return buf
}

// mapScan scans a value -> postings table in ascending value order.
func mapScan(m map[string][]int32) valueScan {
	return func(emit func(string, []int32) error) error {
		for _, v := range slices.Sorted(maps.Keys(m)) {
			if err := emit(v, m[v]); err != nil {
				return err
			}
		}
		return nil
	}
}

// snapshotSource reads a MemStore's live state: a type without a
// mutation overlay is exactly its index, a mutated one is assembled
// through the overlay by liveValueTable.
func (s *MemStore) snapshotSource() snapshotSource {
	s.mustBeFinal()
	return snapshotSource{
		theta:  s.theta,
		span:   s.IDSpan(),
		alive:  s.Alive,
		record: odsRecords(s.ods),
		types:  s.typeNames(),
		table: func(typ string) (int, valueScan, error) {
			if ti := s.types[typ]; s.deltas[typ] == nil {
				return ti.maxLen, func(emit func(string, []int32) error) error {
					for i, v := range ti.values {
						if err := emit(v, ti.objects[i]); err != nil {
							return err
						}
					}
					return nil
				}, nil
			}
			m, maxLen := s.liveValues(typ)
			return maxLen, mapScan(m), nil
		},
	}
}

// snapshotSource reads a DiskStore's live state by streaming its own
// segments: base records and appended ODs from the overlay, each type's
// base values merged with its appended ones through the overlay.
func (s *DiskStore) snapshotSource() snapshotSource {
	s.mustBeFinal()
	m := s.mut
	return snapshotSource{
		theta: s.theta,
		span:  s.IDSpan(),
		alive: s.Alive,
		seq:   s.DeltaSeq(),
		record: func(id int32, buf []odcodec.Tuple) (string, int32, []odcodec.Tuple, error) {
			if m != nil && id >= m.baseN {
				o := m.added[id]
				return o.Object, int32(o.Source), appendCodecTuples(buf, o), nil
			}
			return s.r.OD(id)
		},
		types: s.typeNames(),
		table: s.liveTable,
	}
}

// liveTable is one type's live value table. Without an overlay the base
// segment is the table. With one, a measuring pass sizes the edit
// budget over the live values, and the scan merges the base values
// (ascending) with the sorted appended ones (disjoint from the base by
// construction) — memory stays bounded by one value table row.
func (s *DiskStore) liveTable(typ string) (int, valueScan, error) {
	m := s.mut
	if m == nil {
		return s.typeMeta[typ].MaxLen, func(emit func(string, []int32) error) error {
			return s.scanBase(typ, func(v []byte, _ int, ids []int32) error { return emit(string(v), ids) })
		}, nil
	}
	maxLen := 0
	if err := s.forEachLiveValue(typ, func(runeLen int) { maxLen = max(maxLen, runeLen) }); err != nil {
		return 0, nil, err
	}
	added := make([]string, 0, len(m.addedVals[typ]))
	for _, av := range m.addedVals[typ] {
		added = append(added, av.val)
	}
	slices.Sort(added)
	return maxLen, func(emit func(string, []int32) error) error {
		next := 0
		err := s.scanBase(typ, func(vb []byte, _ int, ids []int32) error {
			v := string(vb)
			for ; next < len(added) && added[next] < v; next++ {
				if err := emit(added[next], m.mergePostings(typ, added[next], nil)); err != nil {
					return err
				}
			}
			return emit(v, m.mergePostings(typ, v, ids))
		})
		for ; err == nil && next < len(added); next++ {
			err = emit(added[next], m.mergePostings(typ, added[next], nil))
		}
		return err
	}, nil
}

// mergeInPlace saves a DiskStore into its own directory. The manifest of
// a store that is not dirty already describes its live state
// (tombstones included), so only the provenance changes. A dirty store
// is rewritten with its ID space kept, and the in-process store then
// re-points itself at the merged base — same answers, same IDs, still
// mutable.
func (s *DiskStore) mergeInPlace(meta SnapshotMeta) error {
	s.mustBeFinal()
	if !s.dirty {
		return odcodec.UpdateMeta(s.dir, meta.Fingerprint)
	}
	if err := writeSnapshot(s.dir, s.snapshotSource(), idPlan{keep: true}, meta.Fingerprint); err != nil {
		return err
	}
	r, err := odcodec.OpenWith(s.dir, s.opts.codecOptions())
	if err != nil {
		return fmt.Errorf("od: reopen own merged snapshot: %w", err)
	}
	old := s.r
	s.serveFrom(r) // re-derives size/stats/caches and seeds the tombstone overlay
	old.Close()
	return nil
}
