package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/od"
	"repro/internal/sim"
)

// StageUpdate is the incremental ingestion stage of a Detector.Update
// run: it infers schemas for the batch's new sources, ingests only their
// anchors into the existing store (AddAfterFinalize), applies the
// removals, and derives the dirty sets the later stages patch around.
const StageUpdate = "update"

// UpdateBatch is one increment against a detected corpus: sources whose
// anchors are appended as new candidates, and candidate IDs to remove.
// A corrected anchor is modeled as remove-then-add — remove its old ID
// and include a source carrying the corrected version.
type UpdateBatch struct {
	Add    []SourceInput
	Remove []int32
}

// incState is the replay state Config.Incremental records on a Result:
// everything Update needs to patch the untouched portion of the previous
// answer bit-identically instead of recomputing it.
type incState struct {
	size  int    // |ΩT| when the state was recorded
	fp    string // fingerprint chain head ("" = no provenance)
	alive []bool // post-reduce survival per ID (filter applied)
	// pairs holds one trace per compared pair with at least one similar
	// match, keyed by pairKey. A pair's trace stays valid while neither
	// endpoint's exact tuple postings change.
	pairs map[int64]sim.PairTrace
	// filter holds per-ID bound traces (nil when no bounds were
	// computed). A trace stays valid while no posting of a value
	// θtuple-similar to one of the object's tuples changes.
	filter [][]sim.FilterStep
	// origin attributes where the state came from: "memory" for states
	// recorded by an in-process run, "disk" for states Adopt restored
	// from a persisted trace segment. Surfaced as Stats.TraceSource on
	// the Update that consumes it.
	origin string
	// chain is the shape of the persisted trace chain this state was
	// written as (the traces stage, Result.SaveTraces) or read from
	// (Adopt); zero when it was never persisted.
	chain od.TraceChain
}

// traceSet is the state as the od layer persists it.
func (s *incState) traceSet() *od.TraceSet {
	return &od.TraceSet{Fingerprint: s.fp, Size: s.size, Alive: s.alive, Pairs: s.pairs, Filter: s.filter}
}

func pairKey(i, j int32) int64 { return int64(i)<<32 | int64(uint32(j)) }

func unpairKey(k int64) (int32, int32) { return int32(k >> 32), int32(uint32(k)) }

// updateCtx threads an Update run's batch state through its update
// stage. The replay state Steps 4–6 read (prev, newFrom, the dirty
// sets) is on pipelineRun, where a fresh Detect leaves it empty.
type updateCtx struct {
	batch UpdateBatch
	ms    od.MutableStore

	addBuf []*od.OD // staging buffer flushed to AddAfterFinalize

	// changed maps every occurrence key whose posting list this batch
	// touched (tuples of added and removed ODs) to a query tuple.
	changed map[string]od.Tuple
}

// Update runs the incremental detection path against the result of a
// previous Detect/Update (or Adopt): it ingests only the batch's new
// anchors into the existing MutableStore, maintains the indexes by
// delta, re-derives the Step 4 bounds conservatively (recomputing only
// objects whose similar-value neighborhood changed, replaying the rest
// under the new |ΩT|), recompares only the affected candidate pairs
// (new, removed-adjacent, or holding a changed value — every other
// pair's score is patched from its recorded trace), and rebuilds the
// clusters from the merged pair set via cluster.FromPairsFunc.
//
// The result is bit-identical to a from-scratch Detect over the live
// corpus, modulo the ID space: incremental IDs keep their holes and
// arrival order, so clusters and pairs match a fresh run's after mapping
// IDs through (Source, Path). The incremental-equivalence suite pins
// this on all three store backends.
//
// Without replay traces on prev (Config.Incremental off, or a store
// adopted from a snapshot carrying no valid trace segment), every
// surviving pair recompares — still correct, and still skipping
// re-ingestion and the index rebuild. Stats.TraceSource attributes
// which path ran: "memory" (in-process traces), "disk" (traces Adopt
// restored from the snapshot's trace segment), or "none". Traces
// replay only the paper's measure: under a custom Comparator every
// surviving pair recompares (over all pairs with DisableBlocking), and
// under a custom Filter every bound recomputes.
//
// θtuple must match the store's; prev must carry one candidate slot per
// store ID. With Config.Snapshot.Save set, the batch is persisted with a
// chained fingerprint (see updateSnapshot). A DiskStore saving into its
// own directory persists a batch as the delta segments AddAfterFinalize
// and Remove fsynced plus, with Config.Incremental, one frame appended
// to the trace chain, and merges its deltas in place (tombstoned ID
// space, store stays usable) once per trace chain — so an in-process
// chain of Update calls persists every batch at the cost of the batch.
func (d *Detector) Update(prev *Result, batch UpdateBatch) (*Result, error) {
	start := time.Now()
	if prev == nil || prev.Store == nil {
		return nil, fmt.Errorf("core: Update needs the previous Result with its store")
	}
	ms, ok := prev.Store.(od.MutableStore)
	if !ok {
		return nil, fmt.Errorf("core: store %T does not support post-Finalize updates", prev.Store)
	}
	if got, want := ms.Theta(), d.cfg.ThetaTuple; got != want {
		return nil, fmt.Errorf("core: store indexes built for θtuple=%v, config wants %v", got, want)
	}
	if len(prev.Candidates) != int(ms.IDSpan()) {
		return nil, fmt.Errorf("core: %d candidates for %d store IDs; pass the Result the store came from", len(prev.Candidates), ms.IDSpan())
	}
	if len(d.mapping.Paths(prev.Type)) == 0 {
		return nil, fmt.Errorf("core: type %q has no candidate paths in the mapping", prev.Type)
	}
	seen := map[int32]bool{}
	for _, id := range batch.Remove {
		if seen[id] {
			return nil, fmt.Errorf("core: Update removes id %d twice", id)
		}
		seen[id] = true
		if !ms.Alive(id) {
			return nil, fmt.Errorf("core: Update removes id %d, which is not a live candidate", id)
		}
	}

	res := &Result{
		Type:        prev.Type,
		Candidates:  append([]Candidate(nil), prev.Candidates...),
		Store:       prev.Store,
		SourceCount: prev.SourceCount + len(batch.Add),
		Removed:     append(append([]int32(nil), prev.Removed...), batch.Remove...),
	}
	p := &pipelineRun{
		d:           d,
		typeName:    prev.Type,
		inputs:      batch.Add,
		res:         res,
		store:       prev.Store,
		comparator:  d.comparator(),
		filter:      d.objectFilter(),
		upd:         &updateCtx{batch: batch, ms: ms, changed: map[string]od.Tuple{}},
		prev:        prev.inc,
		newFrom:     ms.IDSpan(),
		exactDirty:  map[int32]bool{},
		filterDirty: map[int32]bool{},
	}
	if ds, ok := ms.(*od.DiskStore); ok && prev.inc != nil && prev.inc.chain.DeltaSeq == ds.DeltaSeq() {
		p.chain = prev.inc.chain
	}
	if d.cfg.Incremental {
		p.inc = &incState{pairs: map[int64]sim.PairTrace{}}
	}
	res.Stats.TraceSource = "none"
	if prev.inc != nil {
		if res.Stats.TraceSource = prev.inc.origin; res.Stats.TraceSource == "" {
			res.Stats.TraceSource = "memory"
		}
	}

	stages := d.stages([]pipelineStage{{StageUpdate, (*pipelineRun).updateApply}}, (*pipelineRun).updateSnapshot)
	if err := p.run(stages); err != nil {
		return nil, err
	}
	p.finishIncState()
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

// Adopt wraps an already-finalized store — typically od.OpenDiskStore
// over a persisted index directory — in a Result that Update can run
// against without re-detecting anything. Candidates are reconstructed
// from the stored object descriptions, and when the store's snapshot
// directory carries a valid trace segment (od.LoadTraces: recorded by a
// run with Config.Incremental and Snapshot.Save, still bound to the
// current manifest and delta sequence), the persisted replay traces are
// restored, so the first Update after a restart patches clean pairs
// exactly like an in-process run — and appends to the same chain. The
// recorded StageAdopt stats report the restoration: its item count is
// the number of pair traces loaded — zero means no usable segment was
// found (absent, stale, corrupt, or a store at another delta
// sequence), and the first Update recompares all surviving pairs
// instead.
func Adopt(typeName string, s od.Store) (*Result, error) {
	begin := time.Now()
	ms, ok := s.(od.MutableStore)
	if !ok {
		return nil, fmt.Errorf("core: store %T does not support post-Finalize updates", s)
	}
	span := ms.IDSpan()
	res := &Result{Type: typeName, Store: s, SourceCount: 0}
	res.Candidates = make([]Candidate, span)
	for id := int32(0); id < span; id++ {
		if !ms.Alive(id) {
			res.Removed = append(res.Removed, id)
			continue
		}
		o := ms.OD(id)
		res.Candidates[id] = Candidate{Source: o.Source, Path: o.Object}
		if o.Source+1 > res.SourceCount {
			res.SourceCount = o.Source + 1
		}
	}
	// A rejected trace segment downgrades to a full recompare, never to
	// an error: the traces are a pure cache of replayable work.
	items := 0
	if ts, err := od.LoadTraces(s); err == nil && ts != nil {
		res.inc = &incState{
			size:   ts.Size,
			fp:     ts.Fingerprint,
			alive:  ts.Alive,
			pairs:  ts.Pairs,
			filter: ts.Filter,
			origin: "disk",
			chain:  ts.Chain,
		}
		items = len(ts.Pairs)
	}
	res.Stages = append(res.Stages, StageStats{Name: StageAdopt, Items: items, Elapsed: time.Since(begin)})
	return res, nil
}

// SaveTraces persists the replay traces this result carries (recorded
// under Config.Incremental) as the trace segment of the snapshot
// already committed in dir — the manual counterpart of the automatic
// traces stage, for stores the pipeline cannot snapshot itself: a
// federation persisted via od.SavePartitioned. Call it right after the
// snapshot lands; any later rewrite of dir's manifest invalidates the
// segment, and a later Adopt of the reopened store restores it. Into a
// DiskStore's own directory, the segment written is the chain the next
// Update appends to.
func (r *Result) SaveTraces(dir string) error {
	if r.inc == nil {
		return fmt.Errorf("core: result carries no replay traces (Config.Incremental off)")
	}
	chain, err := od.SaveTraces(dir, r.Store, r.inc.traceSet())
	if err != nil {
		return err
	}
	if ds, ok := r.Store.(*od.DiskStore); ok && ds.InDir(dir) {
		r.inc.chain = chain
	}
	return nil
}

// finishIncState snapshots the run's survival state into the recorded
// traces once all stages ran.
func (p *pipelineRun) finishIncState() {
	if p.inc == nil {
		return
	}
	p.inc.size = p.store.Size()
	p.inc.alive = p.alive
	p.inc.origin = "memory"
	if p.prev != nil && p.inc.fp == "" {
		p.inc.fp = p.prev.fp
	}
	p.res.inc = p.inc
}

// updateApply is the StageUpdate implementation. Its item count is the
// number of candidates the batch added plus removed.
func (p *pipelineRun) updateApply() (int, error) {
	u := p.upd
	baseSources := p.res.SourceCount - len(u.batch.Add)

	if len(u.batch.Add) > 0 {
		if _, err := p.inferSchemas(); err != nil {
			return 0, err
		}
		candPaths := p.d.mapping.Paths(p.typeName)
		for si, src := range p.inputs {
			active, err := p.compilePaths(candPaths, si, src.streaming())
			if err != nil {
				return 0, err
			}
			if len(active) == 0 {
				continue
			}
			sink := newIngestSink(p, baseSources+si, active, src.streaming())
			if err := src.ingest(active, sink.emit); err != nil {
				return 0, fmt.Errorf("core: source %d: %w", si, err)
			}
			sink.finish()
		}
	}
	// The sink staged the flattened ODs (their positional paths are
	// final now); one AddAfterFinalize assigns their IDs in candidate
	// order.
	scratch := map[string]bool{}
	for _, o := range u.addBuf {
		p.recordChangedKeys(o, scratch)
	}
	if len(u.addBuf) > 0 {
		if err := u.ms.AddAfterFinalize(u.addBuf); err != nil {
			return 0, err
		}
	}
	if got, want := len(p.res.Candidates), int(u.ms.IDSpan()); got != want {
		return 0, fmt.Errorf("core: update ingested %d candidates but store spans %d IDs", got, want)
	}
	for _, id := range u.batch.Remove {
		p.recordChangedKeys(u.ms.OD(id), scratch)
	}
	if len(u.batch.Remove) > 0 {
		if err := u.ms.Remove(u.batch.Remove); err != nil {
			return 0, err
		}
	}

	// Dirty closure, on the *updated* indexes: objects holding a changed
	// key recompare their pairs; objects with any value θtuple-similar
	// to a changed value recompute their filter bound. Querying by the
	// changed value works whether or not the value still exists — the
	// similar-value scan is distance-based, so it finds the surviving
	// neighbors either way.
	for _, t := range u.changed {
		for _, id := range u.ms.ObjectsWithExact(t) {
			if id < p.newFrom {
				p.exactDirty[id] = true
			}
		}
		for _, m := range u.ms.SimilarValues(t) {
			for _, id := range m.Objects {
				if id < p.newFrom {
					p.filterDirty[id] = true
				}
			}
		}
	}
	return len(u.addBuf) + len(u.batch.Remove), nil
}

// recordChangedKeys notes every distinct occurrence key of one OD as
// changed by this batch.
func (p *pipelineRun) recordChangedKeys(o *od.OD, scratch map[string]bool) {
	clear(scratch)
	for _, t := range o.Tuples {
		if t.Value == "" {
			continue
		}
		k := t.Type + "\x00" + t.Value
		if scratch[k] {
			continue
		}
		scratch[k] = true
		p.upd.changed[k] = od.Tuple{Value: t.Value, Type: t.Type}
	}
}

// updateSnapshot persists the batch with a *chained* fingerprint:
// H(previous fingerprint, batch source bytes, removed IDs). The chain
// can never equal a fresh corpus fingerprint, so a later -reuse-index
// run against different inputs safely misses and rebuilds, while
// OpenDiskStore/Adopt (which trust the operator's directory) continue
// the chain. A previous state without provenance yields "" — the
// snapshot stays openable but never warm-starts. A batch that adds and
// removes nothing leaves the chain head where it was, except over a
// base fingerprint with unmerged deltas, which it hashes forward.
//
// A DiskStore updating its own directory has persisted the batch
// already: AddAfterFinalize and Remove fsynced its delta segments
// before it applied. While the run persists traces into a chain with
// room for one more frame, that is the whole snapshot — the chained
// fingerprint rides in the trace frame, and the manifest stays as it
// is. Otherwise the deltas merge in place (tombstoned ID space, store
// stays usable) and the traces stage starts a new chain, so the merge
// runs once per chain. An empty batch on such a store writes nothing.
func (p *pipelineRun) updateSnapshot() (int, error) {
	u := p.upd
	dir := p.d.cfg.Snapshot.Dir
	ds, _ := p.store.(*od.DiskStore)
	prevFP := ""
	fromManifest := false
	if p.prev != nil && p.prev.fp != "" {
		prevFP = p.prev.fp
	} else if ds != nil {
		prevFP, fromManifest = ds.Fingerprint(), true
	}
	empty := len(u.batch.Add) == 0 && len(u.batch.Remove) == 0
	fp := prevFP
	// An empty batch keeps the chain head, unless that head is the base
	// manifest's fingerprint under replayed deltas: it describes only the
	// base, so stamping the live state with it could warm-start a fresh
	// run on the base inputs.
	if prevFP != "" && (!empty || fromManifest && ds.Mutated()) {
		h := sha256.New()
		fmt.Fprintf(h, "%s;update;%s;", fingerprintVersion, prevFP)
		for i, src := range p.inputs {
			if err := digestSource(h, src); err != nil {
				return 0, fmt.Errorf("core: source %d: %w", i, err)
			}
		}
		for _, id := range u.batch.Remove {
			fmt.Fprintf(h, "rm:%d;", id)
		}
		fp = hex.EncodeToString(h.Sum(nil))
	}
	if p.inc != nil {
		p.inc.fp = fp
	}
	if ds != nil && ds.InDir(dir) && (empty || p.inc != nil && !p.d.cfg.FilterOnly && p.chain.Appendable()) {
		return 0, nil
	}
	if err := od.Save(dir, p.store, od.SnapshotMeta{Fingerprint: fp}); err != nil {
		return 0, fmt.Errorf("core: snapshot: %w", err)
	}
	return p.store.Size(), nil
}
