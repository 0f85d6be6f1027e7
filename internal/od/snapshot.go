package od

import (
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/od/odcodec"
)

// SnapshotMeta is the provenance a snapshot is stamped with when saved.
type SnapshotMeta struct {
	// Fingerprint identifies the corpus + detection configuration the
	// indexes were built from (internal/core computes it); warm starts
	// require an exact match.
	Fingerprint string
}

// Save persists a finalized store into dir in the DiskStore segment
// format, so a later OpenDiskStore (or the pipeline's warm-start path)
// restores it without rebuilding any index. Every backend can be saved:
// an unmutated DiskStore that already lives in dir only has its manifest
// re-stamped with the meta; MemStore and foreign-directory DiskStores
// are exported table by table. The snapshot commits
// atomically — its manifest is written last.
//
// A mutated store exports its live set with the ID space compacted
// (holes from Remove close up, order preserved), so the snapshot is
// indistinguishable from a fresh build over the live objects.
//
// A mutated DiskStore saving into its own directory is *merged in
// place*: the overlay folds into fresh base segments that keep the ID
// space unrenumbered (removed slots persist as stub records listed in
// the manifest's tombstone set), the delta watermark advances past
// every folded segment, and the stale delta files are deleted. The
// in-process store re-points itself at the merged base and stays fully
// usable — queries and further AddAfterFinalize/Remove batches continue
// with the same IDs, and a reopen reproduces the exact same state.
func Save(dir string, s Store, meta SnapshotMeta) error {
	if ds, ok := s.(*DiskStore); ok && sameDir(ds.dir, dir) {
		ds.mustBeFinal()
		if !ds.dirty {
			// The base manifest already describes the live state
			// (tombstones included); only the provenance changes.
			return odcodec.UpdateMeta(dir, meta.Fingerprint)
		}
		return ds.mergeInPlace(meta)
	}
	return exportTo(dir, s, meta)
}

// exportTo writes a full compact snapshot of s into dir and stamps its
// manifest so any stale delta file in dir sits at or below the
// watermark.
func exportTo(dir string, s Store, meta SnapshotMeta) error {
	exp, ok := s.(interface {
		exportSnapshot(w *odcodec.Writer) error
	})
	if !ok {
		return fmt.Errorf("od: save: backend %T cannot be snapshotted", s)
	}
	w, err := odcodec.NewWriter(dir)
	if err != nil {
		return err
	}
	defer w.Abort()
	if err := exp.exportSnapshot(w); err != nil {
		return err
	}
	staleSeq, err := odcodec.MaxDeltaSeq(dir)
	if err != nil {
		return err
	}
	if err := w.Commit(odcodec.Meta{
		Fingerprint: meta.Fingerprint,
		Theta:       s.Theta(),
		DeltaSeq:    staleSeq,
	}); err != nil {
		return err
	}
	odcodec.RemoveDeltas(dir, staleSeq)
	return nil
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

// remapIDs rewrites a live posting list through the compaction map. The
// map is order-preserving, so the result stays strictly ascending.
func remapIDs(ids []int32, remap []int32) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = remap[id]
	}
	return out
}

func sameDir(a, b string) bool {
	if a == b {
		return true
	}
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	return err1 == nil && err2 == nil && aa == bb
}

// writeODs streams the OD records in ID order, skipping removed (nil)
// slots — the snapshot's compact ID space is the live subsequence.
func writeODs(w *odcodec.Writer, ods []*OD) error {
	tuples := make([]odcodec.Tuple, 0, 16)
	for _, o := range ods {
		if o == nil {
			continue
		}
		tuples = tuples[:0]
		for _, t := range o.Tuples {
			tuples = append(tuples, odcodec.Tuple{Value: t.Value, Name: t.Name, Type: t.Type})
		}
		if err := w.AddOD(o.Object, int32(o.Source), tuples); err != nil {
			return err
		}
	}
	return nil
}

// exportSnapshot writes the MemStore's tables: the typeIndex already
// holds each type's values sorted with aligned posting lists. A mutated
// store takes the slow path: live value tables are assembled through the
// overlay and posting lists rewritten into the compacted ID space.
func (s *MemStore) exportSnapshot(w *odcodec.Writer) error {
	s.mustBeFinal()
	if err := writeODs(w, s.ods); err != nil {
		return err
	}
	if s.mutated {
		return s.exportLive(w)
	}
	names := make([]string, 0, len(s.types))
	for typ := range s.types {
		names = append(names, typ)
	}
	sort.Strings(names)
	for _, typ := range names {
		ti := s.types[typ]
		if err := w.BeginType(typ, ti.maxLen, ti.budget); err != nil {
			return err
		}
		for i, v := range ti.values {
			if err := w.AddValue(v, ti.objects[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// exportLive writes a mutated MemStore's live value tables.
func (s *MemStore) exportLive(w *odcodec.Writer) error {
	remap := buildRemap(s.IDSpan(), s.Alive)
	names := map[string]bool{}
	for typ := range s.types {
		names[typ] = true
	}
	for typ := range s.deltas {
		names[typ] = true
	}
	sorted := make([]string, 0, len(names))
	for typ := range names {
		sorted = append(sorted, typ)
	}
	sort.Strings(sorted)
	for _, typ := range sorted {
		m, maxLen := liveValueTable(s.types[typ], s.deltas[typ], func(val string) []int32 {
			return s.occ[occKeyOf(typ, val)]
		})
		if m == nil {
			continue
		}
		if err := writeLiveType(w, typ, m, maxLen, s.theta, remap); err != nil {
			return err
		}
	}
	return nil
}

// writeLiveType streams one live value table in canonical order.
func writeLiveType(w *odcodec.Writer, typ string, m map[string][]int32, maxLen int, theta float64, remap []int32) error {
	if err := w.BeginType(typ, maxLen, editBudget(theta, maxLen)); err != nil {
		return err
	}
	values := make([]string, 0, len(m))
	for v := range m {
		values = append(values, v)
	}
	sort.Strings(values)
	for _, v := range values {
		if err := w.AddValue(v, remapIDs(m[v], remap)); err != nil {
			return err
		}
	}
	return nil
}

// exportSnapshot re-exports a disk store by streaming its own segments —
// used when the snapshot target differs from the store's directory, and
// as the merge path that folds a mutated store's overlay into fresh base
// segments.
func (s *DiskStore) exportSnapshot(w *odcodec.Writer) error {
	s.mustBeFinal()
	if s.mut == nil {
		for id := int32(0); id < int32(s.size); id++ {
			obj, src, tuples, err := s.r.OD(id)
			if err != nil {
				return err
			}
			if err := w.AddOD(obj, src, tuples); err != nil {
				return err
			}
		}
		for _, tm := range s.r.Types() {
			if err := w.BeginType(tm.Name, tm.MaxLen, tm.Budget); err != nil {
				return err
			}
			err := s.scanBase(tm.Name, func(v []byte, _ int, ids []int32) error { return w.AddValue(string(v), ids) })
			if err != nil {
				return err
			}
		}
		return nil
	}
	return s.exportLive(w)
}

// exportLive streams a mutated DiskStore's live state: base ODs minus
// removals, then appended ODs, with posting lists merged through the
// overlay and rewritten into the compacted ID space. Each type's value
// segment is scanned twice — once to size the edit budget over the live
// values, once to write them — keeping the merge's memory bounded by one
// value table row.
func (s *DiskStore) exportLive(w *odcodec.Writer) error {
	m := s.mut
	remap := buildRemap(s.IDSpan(), s.Alive)
	for id := int32(0); id < m.baseN; id++ {
		if m.removed[id] {
			continue
		}
		obj, src, tuples, err := s.r.OD(id)
		if err != nil {
			return err
		}
		if err := w.AddOD(obj, src, tuples); err != nil {
			return err
		}
	}
	tupleBuf := make([]odcodec.Tuple, 0, 16)
	for _, id := range m.addOrder {
		if m.removed[id] {
			continue
		}
		o := m.added[id]
		tupleBuf = tupleBuf[:0]
		for _, t := range o.Tuples {
			tupleBuf = append(tupleBuf, odcodec.Tuple{Value: t.Value, Name: t.Name, Type: t.Type})
		}
		if err := w.AddOD(o.Object, int32(o.Source), tupleBuf); err != nil {
			return err
		}
	}

	return s.exportLiveTypes(w, remap)
}

// exportLiveTypes streams every type's live value table — base postings
// merged through the overlay, appended values interleaved in value
// order — into the writer. remap rewrites posting IDs into a compacted
// space; nil keeps the original IDs (the in-place merge path).
func (s *DiskStore) exportLiveTypes(w *odcodec.Writer, remap []int32) error {
	m := s.mut
	names := map[string]bool{}
	for _, tm := range s.r.Types() {
		names[tm.Name] = true
	}
	for typ := range m.addedVals {
		names[typ] = true
	}
	sorted := make([]string, 0, len(names))
	for typ := range names {
		sorted = append(sorted, typ)
	}
	sort.Strings(sorted)
	for _, typ := range sorted {
		// Pass 1: live max value length for the type's edit budget.
		maxLen, live := 0, 0
		err := s.forEachLiveValue(typ, func(runeLen int) {
			live++
			maxLen = max(maxLen, runeLen)
		})
		if err != nil {
			return err
		}
		addedSorted := make([]string, 0, len(m.addedVals[typ]))
		for _, av := range m.addedVals[typ] {
			addedSorted = append(addedSorted, av.val)
		}
		sort.Strings(addedSorted)
		if live == 0 {
			continue
		}
		if err := w.BeginType(typ, maxLen, editBudget(s.theta, maxLen)); err != nil {
			return err
		}
		// Pass 2: merge the base scan (ascending) with the sorted
		// appended values (disjoint from base by construction).
		next := 0
		emit := func(v string, ids []int32) error {
			if len(ids) == 0 {
				return nil
			}
			if remap != nil {
				ids = remapIDs(ids, remap)
			}
			return w.AddValue(v, ids)
		}
		err = s.scanBase(typ, func(vb []byte, _ int, ids []int32) error {
			v := string(vb)
			for next < len(addedSorted) && addedSorted[next] < v {
				if err := emit(addedSorted[next], m.mergePostings(typ, addedSorted[next], nil)); err != nil {
					return err
				}
				next++
			}
			return emit(v, m.mergePostings(typ, v, ids))
		})
		if err != nil {
			return err
		}
		for ; next < len(addedSorted); next++ {
			if err := emit(addedSorted[next], m.mergePostings(typ, addedSorted[next], nil)); err != nil {
				return err
			}
		}
	}
	return nil
}

// mergeInPlace folds a dirty DiskStore's overlay into fresh base
// segments in its own directory without renumbering the ID space:
// every slot keeps its record (removed ones as empty stubs listed in
// the manifest's tombstone set), posting lists keep their IDs, the
// delta watermark advances past every folded segment and the stale
// delta files are deleted. The in-process store then re-points itself
// at the merged base — same answers, same IDs, still mutable.
func (s *DiskStore) mergeInPlace(meta SnapshotMeta) error {
	m := s.mut
	w, err := odcodec.NewWriter(s.dir)
	if err != nil {
		return err
	}
	defer w.Abort()
	stub := func() error { return w.AddOD("", 0, nil) }
	for id := int32(0); id < m.baseN; id++ {
		if m.removed[id] {
			if err := stub(); err != nil {
				return err
			}
			continue
		}
		obj, src, tuples, err := s.r.OD(id)
		if err != nil {
			return err
		}
		if err := w.AddOD(obj, src, tuples); err != nil {
			return err
		}
	}
	tupleBuf := make([]odcodec.Tuple, 0, 16)
	for id := m.baseN; id < m.span; id++ {
		if m.removed[id] {
			if err := stub(); err != nil {
				return err
			}
			continue
		}
		o := m.added[id]
		tupleBuf = tupleBuf[:0]
		for _, t := range o.Tuples {
			tupleBuf = append(tupleBuf, odcodec.Tuple{Value: t.Value, Name: t.Name, Type: t.Type})
		}
		if err := w.AddOD(o.Object, int32(o.Source), tupleBuf); err != nil {
			return err
		}
	}
	if err := s.exportLiveTypes(w, nil); err != nil {
		return err
	}
	tombstones := make([]int32, 0, len(m.removed))
	for id := range m.removed {
		tombstones = append(tombstones, id)
	}
	sortInt32s(tombstones)
	if err := w.Commit(odcodec.Meta{
		Fingerprint: meta.Fingerprint,
		Theta:       s.theta,
		DeltaSeq:    m.seq,
		Tombstones:  tombstones,
	}); err != nil {
		return err
	}
	odcodec.RemoveDeltas(s.dir, m.seq)
	r, err := odcodec.OpenWith(s.dir, s.opts.codecOptions())
	if err != nil {
		return fmt.Errorf("od: reopen own merged snapshot: %w", err)
	}
	old := s.r
	s.serveFrom(r) // re-derives size/stats/caches and seeds the tombstone overlay
	old.Close()
	return nil
}
