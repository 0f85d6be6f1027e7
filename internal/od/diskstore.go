package od

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/od/odcodec"
	"repro/internal/strdist"
)

// DiskStore is the disk-resident Store backend: Finalize runs the same
// shared index builder as the in-memory backends, then streams the
// object descriptions and per-type value tables into odcodec segment
// files and serves every query from those files. After Finalize (or
// OpenDiskStore) the retained heap is bounded by the index directory
// and the fixed-capacity caches — not by corpus size — and the segment
// directory survives process restarts.
//
// Queries are answered with the same canonical results as MemStore:
// similar-value scans re-verify θtuple with the exact same normalized
// edit-distance checks, posting lists are stored sorted, and merged
// outputs use the shared canonical orderings. The internal/od and
// internal/core parity suites pin this bit-for-bit.
//
// Similar-value queries are served from the persisted deletion-
// neighborhood segment (the same FastSS buckets MemStore builds in
// memory), falling back to a sequential segment scan only when the
// type's edit budget is out of the indexable range or a query
// out-ranges the index — the exact coverage rule typeIndex.collect
// applies. Both tiers walk the segments through an odcodec.Cursor and
// gate each value where it is stored — persisted rune length, then
// signature and edit distance over the mapped bytes — so only a value
// that matches is copied out and has its postings decoded. Segments are
// memory-mapped when the platform allows it, with a pread fallback; nothing
// the store returns or caches aliases the mapping, which an in-place
// Save replaces under the live store. Finalize still materializes the
// tables while building, so the build peak matches MemStore's — it is
// the post-build footprint and the OpenDiskStore path that are bounded.
// Pick this backend when indexes must outlive the process (warm
// starts), when the *retained* indexes of a long-lived server must not
// scale with corpus size, or as the serialization substrate for
// shipping indexes between processes.
type DiskStore struct {
	dir  string
	opts DiskOptions

	// Build phase.
	ods       []*OD
	finalized bool

	// Query phase.
	r        *odcodec.Reader
	theta    float64
	size     int // live objects (base minus removed plus added)
	stats    []TypeStats
	typeMeta map[string]odcodec.TypeMeta

	// Mutation phase (MutableStore): the base segments stay immutable;
	// every AddAfterFinalize/Remove batch commits an odcodec delta
	// segment first — written, fsynced and directory-synced: the batch's
	// persistence — and then lands in this overlay, which the query
	// paths merge over the base. core's Update leaves the deltas
	// unmerged between merges; OpenDiskStore rebuilds the overlay by
	// replaying the delta files above the manifest's watermark; Save
	// folds everything into fresh base segments — in place for the
	// store's own directory (tombstones keep the ID space, the store
	// stays usable), compacted for a foreign directory.
	//
	// dirty reports that the overlay has diverged from what the base
	// manifest describes: in-process mutations or replayed unmerged
	// delta segments. A tombstone-only overlay seeded from the manifest
	// itself is not dirty — the snapshot fully describes that state.
	mut   *diskOverlay
	dirty bool

	odCache  *shardedLRU[int32, *OD]
	occCache *shardedLRU[valueKey, []int32]
	simCache *simCache

	allMu  sync.Mutex
	allODs []*OD // materialized by ODs() on demand
}

// diskOverlay is the in-memory image of the committed delta segments.
type diskOverlay struct {
	baseN int32  // OD count of the base segments
	span  int32  // next ID to assign
	seq   uint64 // sequence of the last committed delta

	added    map[int32]*OD // appended ODs by ID
	addOrder []int32       // appended IDs in assignment order
	removed  map[int32]bool
	addOcc   map[string][]int32 // occKey -> appended live+removed ids, ascending

	addedVals   map[string][]addedVal // per type: values absent from the base segments
	addedValSet map[string]map[string]bool
}

// Cache capacities. Entries are recomputable, so these only bound the
// retained heap and the disk-read amplification; they are generous
// enough that the hot working set of the compare stage (the values of
// the objects in flight) stays resident.
const (
	diskODCacheSize  = 8192
	diskOccCacheSize = 16384
	diskSimCacheSize = 16384
)

var _ MutableStore = (*DiskStore)(nil)

// DiskOptions tunes how a DiskStore accesses its segment files. The
// zero value is the default configuration.
type DiskOptions struct {
	// Mmap selects how segment bytes are read: memory-mapped when the
	// platform supports it (MmapAuto, the default, with a transparent
	// fallback to positioned reads), or by positioned reads only
	// (MmapOff, the test seam for the fallback path).
	Mmap odcodec.MmapMode
	// DisableNeighborIndex forces every similar-value query onto the
	// sequential segment scan even when the snapshot carries the
	// deletion-neighborhood segment. A benchmarking knob — answers are
	// identical either way, only the access path changes.
	DisableNeighborIndex bool
}

func (o DiskOptions) codecOptions() odcodec.OpenOptions {
	return odcodec.OpenOptions{Mmap: o.Mmap}
}

// NewDiskStore returns an empty disk store that will write its segment
// files into dir at Finalize, replacing any previous snapshot there.
func NewDiskStore(dir string) *DiskStore {
	return NewDiskStoreWith(dir, DiskOptions{})
}

// NewDiskStoreWith is NewDiskStore with explicit access options.
func NewDiskStoreWith(dir string, opts DiskOptions) *DiskStore {
	return &DiskStore{dir: dir, opts: opts}
}

// OpenDiskStore opens the snapshot previously written to dir and
// returns a store that starts life finalized: Add and Finalize panic,
// every query serves from the segment files. The snapshot is fully
// checksum-verified before the first query; corrupt or missing
// snapshots are rejected (odcodec.ErrNoSnapshot, *odcodec.CorruptError).
// Delta segments committed after the base snapshot — post-Finalize
// mutations that have not been merged by Save yet — are verified and
// replayed, so the store reopens exactly where the mutating process
// left it.
func OpenDiskStore(dir string) (*DiskStore, error) {
	return OpenDiskStoreWith(dir, DiskOptions{})
}

// OpenDiskStoreWith is OpenDiskStore with explicit access options.
func OpenDiskStoreWith(dir string, opts DiskOptions) (*DiskStore, error) {
	r, err := odcodec.OpenWith(dir, opts.codecOptions())
	if err != nil {
		return nil, err
	}
	s := &DiskStore{dir: dir, opts: opts, finalized: true}
	s.serveFrom(r)
	deltas, err := odcodec.ReadDeltas(dir, r.Meta().DeltaSeq)
	if err != nil {
		r.Close()
		return nil, err
	}
	for _, d := range deltas {
		if err := s.replayDelta(d); err != nil {
			r.Close()
			return nil, err
		}
	}
	return s, nil
}

// Dir returns the snapshot directory.
func (s *DiskStore) Dir() string { return s.dir }

// Mutated reports whether the store's live state has diverged from what
// its base manifest describes — mutations applied in process, or
// unmerged delta segments replayed at open. The warm-start path must
// reject such stores: the manifest fingerprint corresponds to a corpus
// the live state no longer matches. A store whose only overlay is the
// manifest's own tombstone list is not mutated in this sense: the
// snapshot (fingerprint included) fully describes it.
func (s *DiskStore) Mutated() bool { return s.dirty }

// Fingerprint returns the corpus fingerprint stamped on the snapshot,
// or "" for a store finalized in-process and not yet stamped.
func (s *DiskStore) Fingerprint() string {
	s.mustBeFinal()
	return s.r.Meta().Fingerprint
}

// DeltaSeq returns the sequence of the last delta segment the store's
// live state includes — written in process or replayed at open — or
// the manifest's watermark when every delta is merged. Trace segments
// record it (see LoadTraces).
func (s *DiskStore) DeltaSeq() uint64 {
	s.mustBeFinal()
	if s.mut != nil {
		return s.mut.seq
	}
	return s.r.Meta().DeltaSeq
}

// InDir reports whether dir is the store's own directory, by any path
// to it: the one Save merges into in place and trace segments bind to
// by identity (see snapshotIDs).
func (s *DiskStore) InDir(dir string) bool { return snapshotIDs(dir, s).keep }

// Add implements Store.
func (s *DiskStore) Add(o *OD) *OD {
	if s.finalized {
		panic("od: Add after Finalize")
	}
	o.ID = int32(len(s.ods))
	s.ods = append(s.ods, o)
	return o
}

// Size implements Store: live objects only.
func (s *DiskStore) Size() int {
	if s.finalized {
		return s.size
	}
	return len(s.ods)
}

// Alive implements MutableStore.
func (s *DiskStore) Alive(id int32) bool {
	if !s.finalized {
		return false
	}
	if s.mut == nil {
		return id >= 0 && int(id) < s.size
	}
	return id >= 0 && id < s.mut.span && !s.mut.removed[id]
}

// IDSpan implements MutableStore.
func (s *DiskStore) IDSpan() int32 {
	if s.mut != nil {
		return s.mut.span
	}
	return int32(s.size)
}

// Theta implements Store.
func (s *DiskStore) Theta() float64 { return s.theta }

// Finalize implements Store: it builds the indexes with the shared
// builder, writes the snapshot, drops the in-memory OD set and switches
// to serving from disk. The Store interface allows no error return, so
// an I/O failure while persisting panics with the underlying error —
// a half-written snapshot is never committed (the manifest is written
// last) and never served.
func (s *DiskStore) Finalize(theta float64) {
	if s.finalized {
		panic("od: Finalize called twice")
	}
	s.finalized = true

	valueObjs := groupValuesByType(buildOccurrence(s.ods))
	maxLens := maxValueLens(valueObjs)
	err := writeSnapshot(s.dir, snapshotSource{
		theta:  theta,
		span:   int32(len(s.ods)),
		record: odsRecords(s.ods),
		types:  slices.Collect(maps.Keys(valueObjs)),
		table: func(typ string) (int, valueScan, error) {
			return maxLens[typ], mapScan(valueObjs[typ]), nil
		},
	}, idPlan{}, "")
	if err != nil {
		panic(fmt.Sprintf("od: DiskStore finalize: %v", err))
	}

	s.ods = nil // from here on the segment files are the store
	r, err := odcodec.OpenWith(s.dir, s.opts.codecOptions())
	if err != nil {
		panic(fmt.Sprintf("od: DiskStore finalize: reopen own snapshot: %v", err))
	}
	s.serveFrom(r)
}

// serveFrom installs the reader and derives the query-phase state,
// including the overlay a tombstoned base snapshot implies (removed
// slots recorded in the manifest by an in-place merge). That seeded
// overlay leaves dirty false: the manifest fully describes it.
func (s *DiskStore) serveFrom(r *odcodec.Reader) {
	s.r = r
	meta := r.Meta()
	s.theta = meta.Theta
	s.size = meta.NumODs
	s.mut = nil
	s.dirty = false
	if len(meta.Tombstones) > 0 {
		s.size = meta.NumODs - len(meta.Tombstones)
		m := s.overlay()
		for _, id := range meta.Tombstones {
			m.removed[id] = true
		}
	}
	s.allMu.Lock()
	s.allODs = nil
	s.allMu.Unlock()
	s.typeMeta = map[string]odcodec.TypeMeta{}
	s.stats = nil
	for _, tm := range r.Types() {
		s.typeMeta[tm.Name] = tm
		s.stats = append(s.stats, TypeStats{
			Type:           tm.Name,
			DistinctValues: tm.NumValues,
			MaxLen:         tm.MaxLen,
			EditBudget:     tm.Budget,
			Indexed:        r.HasNeighbors(tm.Name),
		})
	}
	s.odCache = newShardedLRU[int32, *OD](diskODCacheSize, hashID)
	s.occCache = newShardedLRU[valueKey, []int32](diskOccCacheSize, hashValueKey)
	s.simCache = newSimCache()
}

// overlay returns the mutation overlay, creating it on first use.
func (s *DiskStore) overlay() *diskOverlay {
	if s.mut == nil {
		s.mut = &diskOverlay{
			baseN:       int32(s.r.Meta().NumODs),
			span:        int32(s.r.Meta().NumODs),
			seq:         s.r.Meta().DeltaSeq,
			added:       map[int32]*OD{},
			removed:     map[int32]bool{},
			addOcc:      map[string][]int32{},
			addedVals:   map[string][]addedVal{},
			addedValSet: map[string]map[string]bool{},
		}
	}
	return s.mut
}

// AddAfterFinalize implements MutableStore: the batch is committed as an
// append-only odcodec delta segment first, then folded into the
// in-memory overlay. A delta write failure leaves both disk and store
// unchanged.
func (s *DiskStore) AddAfterFinalize(ods []*OD) error {
	s.mustBeFinal()
	if len(ods) == 0 {
		return nil
	}
	m := s.overlay()
	// Stage first: the base-segment lookups that classify value newness
	// are the only fallible part of applying, so running them before the
	// delta commits keeps the batch atomic — any error here leaves both
	// disk and store untouched.
	staged, err := s.stageAdded(ods)
	if err != nil {
		return err
	}
	added := make([]odcodec.DeltaOD, len(ods))
	for i, o := range ods {
		added[i] = odcodec.DeltaOD{Object: o.Object, Source: int32(o.Source), Tuples: appendCodecTuples(nil, o)}
	}
	if err := odcodec.WriteDelta(s.dir, odcodec.Delta{Seq: m.seq + 1, Added: added}); err != nil {
		return fmt.Errorf("od: DiskStore: %w", err)
	}
	m.seq++
	s.dirty = true
	s.commitAdded(staged)
	for _, st := range staged {
		for _, k := range st.keys {
			typ, _ := splitOccKey(k)
			s.simCache.touch(typ)
		}
	}
	s.invalidate()
	return nil
}

// Remove implements MutableStore, with the same delta-first protocol as
// AddAfterFinalize.
func (s *DiskStore) Remove(ids []int32) error {
	s.mustBeFinal()
	if err := validateRemovals(s.IDSpan(), s.Alive, ids); err != nil {
		return err
	}
	if len(ids) == 0 {
		return nil
	}
	m := s.overlay()
	sorted := append([]int32(nil), ids...)
	sortInt32s(sorted)
	// The removed objects' types, read while the objects still resolve:
	// their cached similar-value answers are the ones this batch stales.
	var touched []string
	for _, id := range sorted {
		for _, t := range s.OD(id).NonEmptyTuples() {
			touched = append(touched, t.Type)
		}
	}
	if err := odcodec.WriteDelta(s.dir, odcodec.Delta{Seq: m.seq + 1, Removed: sorted}); err != nil {
		return fmt.Errorf("od: DiskStore: %w", err)
	}
	m.seq++
	s.dirty = true
	s.applyRemoved(sorted)
	for _, typ := range touched {
		s.simCache.touch(typ)
	}
	s.invalidate()
	return nil
}

// stagedAdd is one appended OD with its pre-resolved index changes.
type stagedAdd struct {
	o       *OD
	keys    []string // distinct non-empty occurrence keys, in tuple order
	newVals []bool   // per key: value absent from base segments and overlay
}

// stageAdded resolves everything fallible about an add batch — the
// base-segment lookups classifying which values are new to the table —
// without touching the overlay. Shared between AddAfterFinalize (which
// stages before committing the delta) and the OpenDiskStore replay.
func (s *DiskStore) stageAdded(ods []*OD) ([]stagedAdd, error) {
	m := s.mut
	seen := map[string]bool{}
	staged := make([]stagedAdd, len(ods))
	// Values introduced earlier in this same batch are not "new" again.
	batchVals := map[string]bool{}
	for i, o := range ods {
		st := &staged[i]
		st.o = o
		var err error
		scanODTuples(o, seen, func(k string) {
			if err != nil {
				return
			}
			st.keys = append(st.keys, k)
			typ, val := splitOccKey(k)
			if m.addedValSet[typ][val] || batchVals[k] {
				st.newVals = append(st.newVals, false)
				return
			}
			var ids [64]int32
			_, inBase, lerr := s.r.LookupValue(typ, val, ids[:0])
			if lerr != nil {
				err = fmt.Errorf("od: DiskStore: %w", lerr)
				return
			}
			st.newVals = append(st.newVals, !inBase)
			if !inBase {
				batchVals[k] = true
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return staged, nil
}

// commitAdded folds a staged batch into the overlay, assigning IDs.
// Infallible by construction — every lookup already happened in
// stageAdded.
func (s *DiskStore) commitAdded(staged []stagedAdd) {
	m := s.mut
	for _, st := range staged {
		o := st.o
		o.ID = m.span
		m.span++
		s.size++
		m.added[o.ID] = o
		m.addOrder = append(m.addOrder, o.ID)
		for i, k := range st.keys {
			m.addOcc[k] = append(m.addOcc[k], o.ID)
			if !st.newVals[i] {
				continue
			}
			typ, val := splitOccKey(k)
			set := m.addedValSet[typ]
			if set == nil {
				set = map[string]bool{}
				m.addedValSet[typ] = set
			}
			set[val] = true
			m.addedVals[typ] = append(m.addedVals[typ], newAddedVal(val))
		}
	}
}

// applyRemoved folds a removal batch into the overlay.
func (s *DiskStore) applyRemoved(ids []int32) {
	m := s.mut
	for _, id := range ids {
		m.removed[id] = true
		s.size--
	}
}

// replayDelta re-applies one persisted mutation batch while reopening.
func (s *DiskStore) replayDelta(d odcodec.Delta) error {
	m := s.overlay()
	if d.Seq != m.seq+1 {
		return fmt.Errorf("od: DiskStore: delta %d replayed out of order after %d", d.Seq, m.seq)
	}
	m.seq = d.Seq
	s.dirty = true
	for _, id := range d.Removed {
		if !s.Alive(id) {
			return fmt.Errorf("od: DiskStore: delta %d removes id %d which is not alive", d.Seq, id)
		}
	}
	if len(d.Added) > 0 {
		ods := make([]*OD, len(d.Added))
		for i, a := range d.Added {
			o := &OD{Object: a.Object, Source: int(a.Source), Tuples: make([]Tuple, len(a.Tuples))}
			for j, t := range a.Tuples {
				o.Tuples[j] = Tuple{Value: t.Value, Name: t.Name, Type: t.Type}
			}
			ods[i] = o
		}
		staged, err := s.stageAdded(ods)
		if err != nil {
			return err
		}
		s.commitAdded(staged)
	}
	s.applyRemoved(d.Removed)
	return nil
}

// invalidate drops the posting-list cache and the materialized OD set,
// whose entries can mix base and overlay state; the similar-value cache
// is invalidated per touched type by the mutation itself. The OD cache
// survives: base records are immutable and removed IDs are filtered
// before the cache is consulted.
func (s *DiskStore) invalidate() {
	s.occCache = newShardedLRU[valueKey, []int32](diskOccCacheSize, hashValueKey)
	s.allMu.Lock()
	s.allODs = nil
	s.allMu.Unlock()
}

// forEachLiveValue calls fn with the rune length of every live value of
// one type of a mutated store — the base segment's values (their
// persisted lengths) that keep a live posting, then the overlay's
// appended ones, in no particular order. Stats and the snapshot export's
// measuring pass share it so "live values of a type" has exactly one
// definition.
func (s *DiskStore) forEachLiveValue(typ string, fn func(runeLen int)) error {
	m := s.mut
	err := s.scanBase(typ, func(v []byte, runeLen int, ids []int32) error {
		if anyLive(m, typ, v, ids) {
			fn(runeLen)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, av := range m.addedVals[typ] {
		if anyLive(m, typ, av.val, nil) {
			fn(len(av.runes))
		}
	}
	return nil
}

// scanBase streams one type's base value table to fn in ascending value
// order. v is a view of the segment and ids decode scratch, both valid
// during the call only.
func (s *DiskStore) scanBase(typ string, fn func(v []byte, runeLen int, ids []int32) error) error {
	c := s.r.Values(typ)
	defer c.Close()
	var ids []int32
	for c.Next() {
		v, err := c.Value()
		if err != nil {
			return err
		}
		if ids, err = c.AppendPostings(ids[:0]); err != nil {
			return err
		}
		if err := fn(v, c.RuneLen(), ids); err != nil {
			return err
		}
	}
	return c.Err()
}

// anyLive reports whether mergePostings would keep anything of one
// value's base posting list, without building the merged list.
func anyLive[S string | []byte](m *diskOverlay, typ string, val S, base []int32) bool {
	alive := func(id int32) bool { return !m.removed[id] }
	return slices.ContainsFunc(base, alive) || slices.ContainsFunc(occLookup(m.addOcc, typ, val), alive)
}

// mergePostings overlays one value's base posting list: removed IDs are
// filtered out and appended IDs (all larger than any base ID) merged in,
// preserving ascending order. The result never shares base's array —
// base is decode scratch the next value overwrites. Returns nil when
// nothing lives.
func (m *diskOverlay) mergePostings(typ, val string, base []int32) []int32 {
	add := occLookup(m.addOcc, typ, val)
	out := make([]int32, 0, len(base)+len(add))
	for _, id := range base {
		if !m.removed[id] {
			out = append(out, id)
		}
	}
	for _, id := range add {
		if !m.removed[id] {
			out = append(out, id)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// livePostings turns a base posting list decoded into scratch into the
// list a match or a cache keeps: merged through the overlay when there
// is one, copied out otherwise. Returns nil when nothing lives.
func (s *DiskStore) livePostings(typ, val string, base []int32) []int32 {
	if s.mut != nil {
		return s.mut.mergePostings(typ, val, base)
	}
	if len(base) == 0 {
		return nil
	}
	return slices.Clone(base)
}

// Close releases the segment file handles. Queries after Close fail;
// the store object is done. Callers that obtained the store through
// the pipeline generally leak the handles to process exit instead,
// like any other Store they would drop.
func (s *DiskStore) Close() error {
	if s.r == nil {
		return nil
	}
	return s.r.Close()
}

// OD implements Store, decoding the record from disk through a
// fixed-capacity cache. Returns nil for a removed id; appended ODs are
// served from the overlay.
func (s *DiskStore) OD(id int32) *OD {
	s.mustBeFinal()
	if m := s.mut; m != nil {
		if m.removed[id] {
			return nil
		}
		if id >= m.baseN {
			return m.added[id]
		}
	}
	if o, ok := s.odCache.get(id); ok {
		return o
	}
	obj, src, tuples, err := s.r.OD(id)
	if err != nil {
		panic(fmt.Sprintf("od: DiskStore: %v", err))
	}
	o := &OD{ID: id, Object: obj, Source: int(src), Tuples: make([]Tuple, len(tuples))}
	for i, t := range tuples {
		o.Tuples[i] = Tuple{Value: t.Value, Name: t.Name, Type: t.Type}
	}
	s.odCache.put(id, o)
	return o
}

// ODs implements Store. For a disk store this materializes every OD in
// memory on first call and keeps the slice — the escape hatch for
// consumers that genuinely need the whole set (the tree-edit baseline,
// diagnostics). The pipeline itself only uses OD(id).
func (s *DiskStore) ODs() []*OD {
	s.mustBeFinal()
	s.allMu.Lock()
	defer s.allMu.Unlock()
	if s.allODs == nil {
		span := s.IDSpan()
		s.allODs = make([]*OD, span)
		for id := int32(0); id < span; id++ {
			s.allODs[id] = s.OD(id) // nil at removed slots
		}
	}
	return s.allODs
}

// ObjectsWithExact implements Store. With an overlay present the cached
// entry is the merged (base minus removed plus appended) posting list.
func (s *DiskStore) ObjectsWithExact(t Tuple) []int32 {
	s.mustBeFinal()
	key := valueKey{t.Type, t.Value}
	if ids, ok := s.occCache.get(key); ok {
		return ids
	}
	var scratch [64]int32
	base, _, err := s.r.LookupValue(t.Type, t.Value, scratch[:0])
	if err != nil {
		panic(fmt.Sprintf("od: DiskStore: %v", err))
	}
	ids := s.livePostings(t.Type, t.Value, base)
	s.occCache.put(key, ids)
	return ids
}

// SimilarValues implements Store. Base values are found through the
// persisted deletion-neighborhood segment when it covers the query
// (similarFromIndex), otherwise by a sequential scan of the type's
// value segment with the same length-window pruning and θtuple re-check
// as the in-memory scan path. Either way the result set and order are
// identical to MemStore's — both paths re-verify θtuple with the exact
// same normalized edit-distance checks, and FastSS guarantees the
// neighborhood candidates are complete within a covered budget. With an
// overlay present, base postings merge through it (values whose lists
// emptied drop out) and the type's appended values are scanned the same
// way.
func (s *DiskStore) SimilarValues(t Tuple) []ValueMatch {
	s.mustBeFinal()
	if t.Value == "" {
		return nil
	}
	var addedVals []addedVal
	if s.mut != nil {
		addedVals = s.mut.addedVals[t.Type]
	}
	if _, ok := s.typeMeta[t.Type]; !ok && len(addedVals) == 0 {
		return nil
	}
	if m, ok := s.simCache.get(t); ok {
		return m
	}
	var stack [64]rune
	q := newQuery(stack[:0], t.Value)
	out, ok := s.similarFromIndex(t.Type, q)
	if !ok {
		out = s.similarFromScan(t.Type, q)
	}
	collectAdded(addedVals, q, s.theta, func(av addedVal) {
		if ids := s.mut.mergePostings(t.Type, av.val, nil); ids != nil {
			out = append(out, ValueMatch{Value: av.val, Objects: ids, Dist: strdist.NormalizedRunes(q.runes, av.runes)})
		}
	})
	sortMatches(out)
	s.simCache.put(t, out)
	return out
}

// similarFromIndex answers one similar-value query over the base values
// by probing the persisted deletion-neighborhood segment: the query's
// own deletion variants select candidate value ordinals (FastSS — two
// strings within the edit budget always share a variant, so the
// candidate set is complete), and the cursor seeks each candidate in
// ascending order for verify. Reports ok=false — sending the caller to
// the sequential scan — when the snapshot has no neighbor segment for
// the type, the benchmarking knob disabled it, or the query could
// out-range the index: the same coverage rule typeIndex.collect applies
// in memory (the budget demanded by max(query length, longest indexed
// value) must not exceed the persisted budget).
func (s *DiskStore) similarFromIndex(typ string, q query) ([]ValueMatch, bool) {
	if s.opts.DisableNeighborIndex || !s.r.HasNeighbors(typ) {
		return nil, false
	}
	tm, ok := s.typeMeta[typ]
	if !ok {
		return nil, false
	}
	if need := strdist.MaxEditsBelow(s.theta, max(len(q.runes), tm.MaxLen)); need < 0 || need > tm.Budget {
		return nil, false
	}
	var stack [128]int32
	cands := stack[:0]
	strdist.EachDeletion(q.val, tm.Budget, func(variant []byte) {
		var err error
		if cands, err = s.r.NeighborLookup(typ, variant, cands); err != nil {
			panic(fmt.Sprintf("od: DiskStore: %v", err))
		}
	})
	slices.Sort(cands)
	var out []ValueMatch
	var runes [64]rune
	lo, hi := lengthWindow(s.theta, len(q.runes), tm.MaxLen)
	c := s.r.Values(typ)
	defer c.Close()
	for _, ord := range slices.Compact(cands) {
		if err := c.Seek(ord); err != nil {
			panic(fmt.Sprintf("od: DiskStore: %v", err))
		}
		if l := c.RuneLen(); lo <= l && l <= hi {
			out = s.verify(out, typ, q, &c, runes[:0])
		}
	}
	return out, true
}

// similarFromScan is the sequential fallback: every base value of the
// type whose persisted rune length falls into the query's length window
// — the same pruning the in-memory scan applies, decided without
// reading a value byte — goes to verify.
func (s *DiskStore) similarFromScan(typ string, q query) []ValueMatch {
	var out []ValueMatch
	var runes [64]rune
	lo, hi := lengthWindow(s.theta, len(q.runes), s.typeMeta[typ].MaxLen)
	c := s.r.Values(typ)
	defer c.Close()
	for c.Next() {
		if l := c.RuneLen(); lo <= l && l <= hi {
			out = s.verify(out, typ, q, &c, runes[:0])
		}
	}
	if err := c.Err(); err != nil {
		panic(fmt.Sprintf("od: DiskStore: %v", err))
	}
	return out
}

// lengthWindow returns the rune lengths [lo, hi] a stored value of at
// most maxLen runes can have within θ of a query of qLen runes: l passes
// when the budget of the longer of the two covers their difference,
// which stops holding for good once it fails above qLen.
func lengthWindow(theta float64, qLen, maxLen int) (lo, hi int) {
	lo, hi = qLen-max(strdist.MaxEditsBelow(theta, qLen), -1), qLen
	for hi < maxLen && strdist.MaxEditsBelow(theta, hi+1) >= hi+1-qLen {
		hi++
	}
	return lo, hi
}

// verify appends the cursor's current value to out when it matches q:
// its runes are decoded from the heap view into the caller's scratch
// for the signature and edit-distance check, and only a value that
// passes is copied to a string and has its postings decoded — merged
// through the overlay, no match when none live.
func (s *DiskStore) verify(out []ValueMatch, typ string, q query, c *odcodec.Cursor, scratch []rune) []ValueMatch {
	vb, err := c.Value()
	if err != nil {
		panic(fmt.Sprintf("od: DiskStore: %v", err))
	}
	vr := strdist.AppendRuneBytes(scratch, vb)
	if !strdist.NormalizedBelowSig(q.runes, vr, q.sig, strdist.Signature(vr), s.theta) {
		return out
	}
	var ids [64]int32
	base, err := c.AppendPostings(ids[:0])
	if err != nil {
		panic(fmt.Sprintf("od: DiskStore: %v", err))
	}
	v := string(vb)
	if ids := s.livePostings(typ, v, base); ids != nil {
		out = append(out, ValueMatch{Value: v, Objects: ids, Dist: strdist.NormalizedRunes(q.runes, vr)})
	}
	return out
}

// SoftIDF implements Store.
func (s *DiskStore) SoftIDF(a, b Tuple) float64 {
	s.mustBeFinal()
	return softIDF(s.size, OccUnion(s, a, b))
}

// SoftIDFSingle implements Store.
func (s *DiskStore) SoftIDFSingle(t Tuple) float64 {
	return s.SoftIDF(t, t)
}

// Neighbors implements Store.
func (s *DiskStore) Neighbors(id int32) []int32 {
	s.mustBeFinal()
	return neighborsOf(s, id)
}

// Stats implements Store. Indexed reports whether the snapshot carries
// a persisted deletion-neighborhood segment for the type — the same
// criterion MemStore uses for its in-memory index, and like MemStore a
// mutated store keeps reporting the base's choice. With an overlay
// present the rows are recomputed exactly over the live values,
// matching a fresh build over the live set.
func (s *DiskStore) Stats() []TypeStats {
	s.mustBeFinal()
	if s.mut == nil {
		return append([]TypeStats(nil), s.stats...)
	}
	var out []TypeStats
	for _, typ := range s.typeNames() {
		distinct, maxLen := 0, 0
		err := s.forEachLiveValue(typ, func(runeLen int) {
			distinct++
			maxLen = max(maxLen, runeLen)
		})
		if err != nil {
			panic(fmt.Sprintf("od: DiskStore: %v", err))
		}
		if distinct == 0 {
			continue
		}
		out = append(out, TypeStats{
			Type:           typ,
			DistinctValues: distinct,
			MaxLen:         maxLen,
			EditBudget:     editBudget(s.theta, maxLen),
			Indexed:        s.r.HasNeighbors(typ),
		})
	}
	sortTypeStats(out)
	return out
}

// typeNames lists every type with base values or appended ones, in no
// particular order.
func (s *DiskStore) typeNames() []string {
	names := slices.Collect(maps.Keys(s.typeMeta))
	if s.mut != nil {
		for typ := range s.mut.addedVals {
			if _, ok := s.typeMeta[typ]; !ok {
				names = append(names, typ)
			}
		}
	}
	return names
}

// routingFilters implements variantFilterSource: covered filters are
// built by scanning the persisted neighbor segment's bucket keys —
// no deletion neighborhoods are recomputed — for every type whose
// snapshot carries one, the benchmarking knob has not disabled it, and
// the overlay has added no values (added values are absent from the
// segment, so a bloom over it would under-report the member; removals
// are harmless, stale bits only cost false positives). Everything else
// gets an uncovered entry.
func (s *DiskStore) routingFilters() []VariantFilter {
	s.mustBeFinal()
	addedTypes := map[string]bool{}
	if s.mut != nil {
		for typ := range s.mut.addedVals {
			addedTypes[typ] = true
		}
	}
	var out []VariantFilter
	for _, tm := range s.r.Types() {
		f := VariantFilter{Type: tm.Name, MaxLen: tm.MaxLen}
		if !s.opts.DisableNeighborIndex && !addedTypes[tm.Name] && s.r.HasNeighbors(tm.Name) {
			bits := newBloomBits(s.r.NeighborBuckets(tm.Name))
			ok, err := s.r.ScanNeighborVariants(tm.Name, func(v string) { bloomAdd(bits, variantHash(v)) })
			if err != nil {
				panic(fmt.Sprintf("od: DiskStore: %v", err))
			}
			if ok {
				f.Covered, f.Budget, f.Bits = true, tm.Budget, bits
			}
		}
		delete(addedTypes, tm.Name)
		out = append(out, f)
	}
	for typ := range addedTypes {
		// Values of a type the base snapshot never saw live only in the
		// overlay; the member must always be consulted for them.
		var maxLen int
		for _, av := range s.mut.addedVals[typ] {
			maxLen = max(maxLen, len(av.runes))
		}
		out = append(out, VariantFilter{Type: typ, MaxLen: maxLen})
	}
	sortVariantFilters(out)
	return out
}

// CacheStats reports each bounded cache's counters, keyed "od" (decoded
// object descriptions), "occ" (posting lists) and "sim" (similar-value
// results). The "occ" counters reset with every mutation batch, all of
// them with an in-place merge; "sim" survives batches — a batch orphans
// the answers of the types it touched, nothing else.
func (s *DiskStore) CacheStats() map[string]CacheStats {
	s.mustBeFinal()
	return map[string]CacheStats{
		"od":  s.odCache.stats(),
		"occ": s.occCache.stats(),
		"sim": s.simCache.lru.stats(),
	}
}

func (s *DiskStore) mustBeFinal() {
	if !s.finalized || s.r == nil {
		panic("od: store not finalized")
	}
}
