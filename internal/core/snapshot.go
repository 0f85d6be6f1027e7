package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/od"
	"repro/internal/xsd"
)

// SnapshotOptions configures index persistence (Config.Snapshot): the
// finalized OD store — the Section 4 value indexes plus the object
// descriptions they were built from — round-trips through a DiskStore
// segment directory, so a later run over the same corpus and duplicate
// definition can skip the entire index build.
type SnapshotOptions struct {
	// Dir is the snapshot directory. Required.
	Dir string
	// Reuse attempts a warm start: when Dir holds a snapshot whose
	// fingerprint matches the current corpus + configuration, the
	// pipeline skips the infer, candidates and describe stages entirely
	// and continues the persisted store as Adopt plus a zero-batch
	// Update: Steps 4–6 replay the bounds and pairs of the snapshot's
	// trace segment (saved under Config.Incremental) and compute only
	// what it does not cover.
	Reuse bool
	// Save persists the finalized indexes after a fresh build, stamped
	// with the corpus fingerprint, so the next Reuse run warm-starts.
	Save bool
}

// fingerprintVersion invalidates all persisted fingerprints when the
// semantics of any fingerprinted component change.
const fingerprintVersion = "dogmatix-fp-v1"

// fingerprint digests everything the persisted indexes depend on:
// the corpus bytes of every source (and declared schema structure),
// the real-world type under detection, the mapping M, the description
// heuristic and θtuple. Two runs with equal fingerprints build
// bit-identical stores, so a snapshot may substitute for the build.
// Knobs that only affect later stages (θcand, filters, workers,
// backends) are deliberately excluded — changing them still warm-starts.
func (p *pipelineRun) fingerprint() (string, error) {
	if p.fp != "" {
		return p.fp, nil
	}
	h := sha256.New()
	put := func(parts ...string) {
		for _, s := range parts {
			// Length-prefix every field so concatenations cannot collide.
			fmt.Fprintf(h, "%d:%s;", len(s), s)
		}
	}
	put(fingerprintVersion, p.typeName, p.d.cfg.Heuristic.String(),
		strconv.FormatFloat(p.d.cfg.ThetaTuple, 'g', -1, 64))
	digestMapping(h, p.d.mapping)
	put(strconv.Itoa(len(p.inputs)))
	for i, src := range p.inputs {
		if err := src.check(); err != nil {
			return "", fmt.Errorf("core: source %d %v", i, err)
		}
		if err := digestSource(h, src); err != nil {
			return "", fmt.Errorf("core: source %d: %w", i, err)
		}
	}
	p.fp = hex.EncodeToString(h.Sum(nil))
	return p.fp, nil
}

// digestMapping writes a canonical serialization of the mapping: every
// (path, type) association sorted by path, then the composite marks.
func digestMapping(w io.Writer, m *Mapping) {
	paths := make([]string, 0, len(m.typeOf))
	for p := range m.typeOf {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(w, "map:%d:%s=%d:%s;", len(p), p, len(m.typeOf[p]), m.typeOf[p])
	}
	comps := make([]string, 0, len(m.composite))
	for p := range m.composite {
		comps = append(comps, p)
	}
	sort.Strings(comps)
	for _, p := range comps {
		fmt.Fprintf(w, "composite:%d:%s;", len(p), p)
	}
}

// digestSource hashes one source's corpus bytes plus its declared
// schema (an inferred schema is a deterministic function of the corpus
// bytes, so "no declared schema" digests as just a marker). Source
// names are excluded on purpose — renaming a file does not change its
// indexes — and so is the ingestion mode: the doc/stream equivalence
// contract guarantees identical bytes yield identical indexes either
// way, so a snapshot saved from a materialized run warm-starts a
// streaming run over the same serialized corpus. A DocSource digests
// its WriteXML serialization and a StreamSource its raw bytes, so the
// cross-mode match requires the stream's bytes to be a serialization
// fixpoint (WriteXML∘Parse-stable — true for corpora written by
// xmltree, not for hand-edited files with, say, trailing whitespace in
// text nodes); a byte difference is only ever a safe miss and rebuild.
// Digesting the bytes read instead would drop that caveat, but it moves
// the fingerprint of corpora that are not a fixpoint, such as
// cmd/dogmatix/testdata/v4-filter-values/corpus.xml, whose saved index
// TestRunFilterValuesManifest must still warm-start. It waits for its
// own fingerprintVersion decision.
func digestSource(h io.Writer, src SourceInput) error {
	switch s := src.(type) {
	case DocSource:
		if err := s.Doc.WriteXML(h); err != nil {
			return err
		}
		digestSchema(h, s.Schema)
	case *StreamSource:
		rc, err := s.Open()
		if err != nil {
			return err
		}
		_, err = io.Copy(h, rc)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		digestSchema(h, s.Schema)
	default:
		return fmt.Errorf("unknown source type %T", src)
	}
	return nil
}

// digestSchema writes the declared schema's full element structure —
// everything heuristics and conditions can observe.
func digestSchema(w io.Writer, s *xsd.Schema) {
	if s == nil {
		io.WriteString(w, "schema:inferred;")
		return
	}
	io.WriteString(w, "schema:declared;")
	for _, e := range s.Elements() {
		fmt.Fprintf(w, "el:%d:%s|%d|%d|%d|%d|%v|%v;",
			len(e.Path), e.Path, e.Type, e.Content, e.MinOccurs, e.MaxOccurs, e.Nillable, e.IsKey)
	}
}

// warmStart is the StageWarmStart implementation: open the snapshot,
// match fingerprints, and when they agree take the persisted store in
// place of the infer/candidates/describe build (resume continues the
// run from it). A missing, corrupt or mismatched snapshot is a cache miss,
// not an error: the stage reports zero items and the pipeline falls
// back to the fresh build (persisting a new snapshot when Save is set).
func (p *pipelineRun) warmStart() (int, error) {
	// Open before fingerprinting: the fingerprint reads every source end
	// to end, so when no usable snapshot exists (or it carries no
	// provenance) that corpus pass would be pure waste.
	ds, err := od.OpenDiskStore(p.d.cfg.Snapshot.Dir)
	if err != nil {
		return 0, nil // no usable snapshot; rebuild
	}
	if ds.Mutated() {
		// Unmerged delta segments — the normal state of a store Update
		// persisted since its last merge: the manifest fingerprint
		// describes only the base, not the replayed live state, so a
		// match would adopt the wrong corpus. Safe miss; -update/Adopt
		// remain the paths that continue such a store.
		ds.Close()
		return 0, nil
	}
	if ds.IDSpan() != int32(ds.Size()) {
		// A tombstoned ID space (in-place merge of an updated store)
		// only ever carries a chained fingerprint, which can never match
		// a fresh corpus fingerprint — but a warm start stands in for a
		// fresh build, whose ID range [0, Size) has no holes, so miss
		// defensively rather than rely on that invariant.
		ds.Close()
		return 0, nil
	}
	if ds.Fingerprint() == "" {
		ds.Close()
		return 0, nil // unstamped snapshot can never match
	}
	fp, err := p.fingerprint()
	if err != nil {
		ds.Close()
		return 0, err
	}
	if ds.Fingerprint() != fp {
		ds.Close()
		return 0, nil // different corpus/configuration; rebuild
	}
	p.store = ds
	p.res.WarmStart = true
	return ds.Size(), nil
}

// resume continues a warm start the way every persisted store is
// continued: Adopt restores the candidates and, when the snapshot
// carries a valid trace segment, the replay state; a zero-batch Update
// then runs Steps 4–6, replaying bounds and pairs instead of
// recomputing them. The adopted candidates carry nil Node and SchemaEl
// pointers — no tree or schema survives a warm start, as for streamed
// candidates.
func (d *Detector) resume(p *pipelineRun, start time.Time) (*Result, error) {
	ds := p.store.(*od.DiskStore)
	var res *Result
	adopted, err := Adopt(p.typeName, ds)
	if err == nil {
		adopted.SourceCount = len(p.inputs)
		res, err = d.Update(adopted, UpdateBatch{})
	}
	if err != nil {
		ds.Close()
		return nil, err
	}
	res.WarmStart = true
	res.Stages = append(append(p.res.Stages, adopted.Stages...), res.Stages...)
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

// snapshot is the StageSnapshot implementation, run after reduce on
// fresh builds when SnapshotOptions.Save is set: stamp the finalized
// store with the corpus fingerprint and persist it.
func (p *pipelineRun) snapshot() (int, error) {
	fp, err := p.fingerprint()
	if err != nil {
		return 0, err
	}
	if p.inc != nil {
		p.inc.Fingerprint = fp // seed for Update's chained provenance
	}
	if err := od.Save(p.d.cfg.Snapshot.Dir, p.store, od.SnapshotMeta{Fingerprint: fp}); err != nil {
		return 0, fmt.Errorf("core: snapshot: %w", err)
	}
	return p.store.Size(), nil
}
