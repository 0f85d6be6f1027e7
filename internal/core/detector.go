// Package core implements the paper's object-identification framework
// (Section 2) and its XML specialization, the DogmatiX algorithm
// (Section 3). Detect drives an explicit staged pipeline covering the six
// steps of the duplicate-detection component:
//
//	infer       schema preparation (inference where none is provided)
//	candidates  Steps 1–3  ingestion: candidate queries find anchors, each
//	            anchor's description (heuristic σ) flattens into an OD on
//	            arrival, ODs reach the store in batches
//	describe    Step 3  the store seals its occurrence/similarity indexes
//	reduce      Step 4  comparison reduction (object filter f, Sec. 5.2)
//	compare     Step 5  pairwise comparisons (classifier of Def. 6, Sec. 5.1,
//	            over lossless shared-value blocking)
//	cluster     Step 6  duplicate clustering (transitive closure)
//
// With Config.Snapshot set, two more stages join the chain: warmstart
// (replaces infer/candidates/describe when a persisted index snapshot
// matches the corpus fingerprint; the run continues as Adopt plus a
// zero-batch Update of the snapshot) and snapshot (persists the
// finalized indexes after a fresh build). See SnapshotOptions.
//
// Detector.Update is the incremental path for living corpora: against a
// previous Result (or a persisted store adopted via Adopt) it ingests
// only an UpdateBatch's new sources, maintains the store's indexes by
// delta (od.MutableStore), re-derives Step 4 bounds conservatively and
// recompares only the affected candidate pairs, with results pinned
// bit-identical to a from-scratch run over the live corpus. See
// update.go and Config.Incremental.
//
// Each stage is a named, independently timed unit (see StageStats and
// Observer in pipeline.go). Where the XML comes from is pluggable through
// the SourceInput seam (DocSource for in-memory trees, StreamSource for
// pull-parsed corpora larger than RAM — both bit-identical); the storage
// backend behind Steps 3–5 is pluggable through Config.NewStore.
//
// Candidate definition (which real-world type to deduplicate, mapping M)
// and duplicate definition (heuristic, thresholds) are provided offline
// via Mapping and Config; Detect performs the online phase.
package core

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/heuristics"
	"repro/internal/od"
	"repro/internal/xmlstream"
	"repro/internal/xmltree"
	"repro/internal/xsd"
)

// SourceInput is the ingestion seam between the pipeline and where XML
// comes from. Two implementations exist: DocSource feeds a materialized
// in-memory document, StreamSource feeds a pull parser so corpora larger
// than RAM flow through the pipeline without ever materializing a full
// tree. Both produce bit-identical Results for the same document. The
// method set is unexported on purpose — the candidate/describe stages
// rely on ordering and lifetime guarantees that only these two
// implementations provide.
type SourceInput interface {
	// check validates the source before any stage touches it.
	check() error
	// declaredSchema returns the schema provided with the source, or nil.
	declaredSchema() *xsd.Schema
	// inferSchema derives a schema when none was declared.
	inferSchema() (*xsd.Schema, error)
	// streaming reports the ingest contract: false means anchors arrive
	// in candidate-path-major order with stable in-tree nodes; true means
	// they arrive in document order, positional paths resolve only after
	// the pass (the emit callback's deferred func), and each subtree is
	// transient — dropped as soon as the callback returns.
	streaming() bool
	// ingest drives one pass over the source, emitting every candidate
	// anchor matching the compiled paths.
	ingest(paths []ingestPath, emit emitFunc) error
}

// DocSource couples one parsed XML document with its schema. Schema may
// be nil, in which case Detect infers it from the document (xsd.Infer).
type DocSource struct {
	Name   string
	Doc    *xmltree.Document
	Schema *xsd.Schema
}

// Source is the historical name of DocSource; existing callers keep
// working unchanged.
type Source = DocSource

func (s DocSource) check() error {
	if s.Doc == nil {
		return fmt.Errorf("has no document")
	}
	return nil
}

func (s DocSource) declaredSchema() *xsd.Schema { return s.Schema }

func (s DocSource) inferSchema() (*xsd.Schema, error) { return xsd.Infer(s.Doc) }

func (s DocSource) streaming() bool { return false }

func (s DocSource) ingest(paths []ingestPath, emit emitFunc) error {
	for pi := range paths {
		for _, node := range paths[pi].query.Eval(s.Doc.Root) {
			if err := emit(pi, node, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// StreamSource feeds the pipeline from a pull parser (internal/xmlstream)
// instead of a materialized document: candidate anchors are recognized
// against the compiled Step 1 paths while tokens stream by, only each
// anchor's bounded subtree is materialized, and it is discarded again the
// moment its object description has been flattened. Peak ingestion memory
// is therefore bounded by the largest anchor subtree, not document size.
//
// Open must return a fresh reader over the document each time it is
// called. The pipeline opens the stream once per pass: once for schema
// inference when Schema is nil (xsd.InferReader), and once for ingestion.
// With a Schema provided, ingestion is a single pass.
//
// Restrictions versus DocSource: the configured heuristic must select
// descendant descriptions only (ancestor or unrelated selections would
// reach outside the anchor subtree), and Result/OD Node pointers are nil
// since no tree survives ingestion.
type StreamSource struct {
	Name   string
	Open   func() (io.ReadCloser, error)
	Schema *xsd.Schema
}

// FileSource returns a StreamSource reading the XML document at path.
// schema may be nil to infer it in a separate streaming pass.
func FileSource(path string, schema *xsd.Schema) *StreamSource {
	return &StreamSource{
		Name:   path,
		Schema: schema,
		Open:   func() (io.ReadCloser, error) { return os.Open(path) },
	}
}

func (s *StreamSource) check() error {
	if s.Open == nil {
		return fmt.Errorf("has no Open function")
	}
	return nil
}

func (s *StreamSource) declaredSchema() *xsd.Schema { return s.Schema }

func (s *StreamSource) inferSchema() (*xsd.Schema, error) {
	rc, err := s.Open()
	if err != nil {
		return nil, err
	}
	schema, err := xsd.InferReader(rc)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	return schema, err
}

func (s *StreamSource) streaming() bool { return true }

func (s *StreamSource) ingest(paths []ingestPath, emit emitFunc) error {
	targets := make([]string, len(paths))
	for i := range paths {
		targets[i] = paths[i].schemaPath
	}
	rc, err := s.Open()
	if err != nil {
		return err
	}
	defer rc.Close()
	sc, err := xmlstream.NewScanner(rc, targets)
	if err != nil {
		return err
	}
	for {
		a, err := sc.Next()
		if err != nil {
			return err
		}
		if a == nil {
			return nil
		}
		if err := emit(a.Target, a.Node, a.Path); err != nil {
			return err
		}
	}
}

// Config is the duplicate definition: how descriptions are selected and
// when two candidates classify as duplicates.
type Config struct {
	// Heuristic selects each candidate's description from the schema
	// (Section 4). Required.
	Heuristic heuristics.Heuristic
	// ThetaTuple is the OD-tuple similarity threshold θtuple (Eq. 4).
	// Defaults to 0.15, the paper's experimental setting.
	ThetaTuple float64
	// ThetaCand is the duplicate classification threshold θcand (Def. 6).
	// Defaults to 0.55.
	ThetaCand float64
	// ThetaPossible enables the framework's third class C2 ("possible
	// duplicates", Sec. 2.2): pairs with ThetaPossible < sim <= ThetaCand
	// are reported separately for expert review. 0 disables the class.
	ThetaPossible float64
	// UseFilter enables Step 4's object filter (Sec. 5.2).
	UseFilter bool
	// DisableBlocking turns off the lossless shared-value blocking in
	// Step 5 and compares all surviving pairs: the all-pairs reference
	// that tests check blocking's losslessness against.
	DisableBlocking bool
	// KeepFilterValues records f(ODi) for every candidate in the result,
	// needed by the Fig. 8 experiment and diagnostics.
	KeepFilterValues bool
	// FilterOnly stops the pipeline after Step 4 (no pairwise
	// comparisons, no clustering). Used by filter-effectiveness
	// experiments.
	FilterOnly bool
	// Workers bounds the goroutines used for Steps 4 and 5. 0 means
	// GOMAXPROCS; 1 forces the serial path. Results are deterministic
	// regardless of the worker count.
	Workers int
	// NewStore constructs the OD store backing Steps 3–5. nil uses
	// od.NewMemStore; pass e.g. func() od.Store { return
	// od.NewDiskStore(dir) } to serve the indexes from segment files,
	// or one returning od.NewPartitionedStore(members, seed) to
	// federate them. Ignored when a warm start adopts a persisted store.
	NewStore func() od.Store
	// Snapshot, when non-nil, enables index persistence: Save writes the
	// finalized indexes (and, with Incremental, the replay traces) to
	// Snapshot.Dir after a fresh build; Reuse warm-starts from a
	// snapshot whose corpus fingerprint matches, skipping
	// infer/candidates/describe entirely and replaying the persisted
	// traces. See SnapshotOptions.
	Snapshot *SnapshotOptions
	// Incremental records replay traces (per-pair softIDF unions, per-
	// object filter steps) on the Result so a later Update call can
	// patch untouched pairs and bounds in place instead of recomputing
	// them bit-identically. Costs memory proportional to the compared
	// pairs. Update works without it — it then recompares all surviving
	// pairs — so leave it off for one-shot detections.
	Incremental bool
	// Observer, when non-nil, receives stage start/done events.
	Observer Observer
}

func (c Config) withDefaults() (Config, error) {
	if c.Heuristic == nil {
		return c, fmt.Errorf("core: config needs a heuristic")
	}
	if c.ThetaTuple == 0 {
		c.ThetaTuple = 0.15
	}
	if c.ThetaCand == 0 {
		c.ThetaCand = 0.55
	}
	if c.ThetaTuple < 0 || c.ThetaTuple > 1 {
		return c, fmt.Errorf("core: θtuple %v out of [0,1]", c.ThetaTuple)
	}
	if c.ThetaCand < 0 || c.ThetaCand > 1 {
		return c, fmt.Errorf("core: θcand %v out of [0,1]", c.ThetaCand)
	}
	if c.ThetaPossible < 0 || c.ThetaPossible >= 1 {
		return c, fmt.Errorf("core: θpossible %v out of [0,1)", c.ThetaPossible)
	}
	if c.ThetaPossible > c.ThetaCand {
		return c, fmt.Errorf("core: θpossible %v above θcand %v", c.ThetaPossible, c.ThetaCand)
	}
	if c.Snapshot != nil {
		if c.Snapshot.Dir == "" {
			return c, fmt.Errorf("core: snapshot options need a directory")
		}
		if !c.Snapshot.Reuse && !c.Snapshot.Save {
			return c, fmt.Errorf("core: snapshot options enable neither Reuse nor Save")
		}
	}
	return c, nil
}

// Candidate is one duplicate candidate (a member of ΩT): where it came
// from. No parsed tree is kept; detection reads only the store's ODs.
type Candidate struct {
	Source int    // index into the sources passed to Detect
	Path   string // positionally qualified XPath within its document
}

// Pair is a detected duplicate pair with its similarity score.
type Pair struct {
	I, J  int32
	Score float64
}

// Stats summarizes one detection run.
type Stats struct {
	Candidates    int
	Pruned        int   // objects removed by the filter
	Compared      int64 // pairwise comparisons executed
	Patched       int64 // pairs replayed from traces instead of compared (Update)
	PairsDetected int   // pairs with sim > θcand
	// TraceSource attributes an Update run's replay traces: "memory"
	// (recorded by the previous in-process run), "disk" (restored from
	// a persisted trace segment by Adopt), or "none" (no traces — full
	// recompare). A warm start reports its Update's; empty for a fresh
	// Detect.
	TraceSource string
	Elapsed     time.Duration
}

// Result is the outcome of Detect.
type Result struct {
	Type       string
	Candidates []Candidate
	Store      od.Store
	// FilterValues holds f(ODi) per candidate when KeepFilterValues is
	// set (index-aligned with Candidates; NaN otherwise).
	FilterValues []float64
	Pruned       []int32
	Pairs        []Pair
	// PossiblePairs holds class C2 (θpossible < sim <= θcand) when
	// Config.ThetaPossible is set; they do not join clusters.
	PossiblePairs []Pair
	Clusters      [][]int32
	// Stages records per-stage timings and item counts, in execution
	// order.
	Stages []StageStats
	Stats  Stats
	// WarmStart reports that the run adopted a persisted index snapshot
	// instead of building one (Config.Snapshot.Reuse hit) and ran as a
	// zero-batch Update of it: Stats.Patched counts the pairs replayed
	// from the snapshot's traces, Stats.TraceSource says whether there
	// were any.
	WarmStart bool
	// SourceCount is the number of sources the candidate Source indexes
	// range over; Update extends it as batches append sources.
	SourceCount int
	// Removed accumulates the candidate IDs deleted by Update calls.
	// Their Candidates slots keep the stale entry for provenance; the
	// IDs never appear in Pruned, Pairs or Clusters again.
	Removed []int32

	// inc carries the replay traces recorded under Config.Incremental,
	// consumed (and re-produced) by Update.
	inc *incState
}

// Detector runs DogmatiX for one mapping and configuration.
type Detector struct {
	mapping *Mapping
	cfg     Config
}

// NewDetector validates the configuration and returns a detector.
func NewDetector(mapping *Mapping, cfg Config) (*Detector, error) {
	if mapping == nil {
		return nil, fmt.Errorf("core: nil mapping")
	}
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Detector{mapping: mapping, cfg: c}, nil
}

// Detect performs duplicate detection for the candidates of the given
// real-world type across all in-memory sources. It is shorthand for
// DetectInputs over DocSources.
func (d *Detector) Detect(typeName string, sources ...Source) (*Result, error) {
	inputs := make([]SourceInput, len(sources))
	for i := range sources {
		inputs[i] = sources[i]
	}
	return d.DetectInputs(typeName, inputs...)
}

// DetectInputs performs duplicate detection for the candidates of the
// given real-world type across all sources, in-memory and streaming alike.
// It is a thin composition of the named pipeline stages returned by
// stages(); all per-step logic lives in pipeline.go.
func (d *Detector) DetectInputs(typeName string, inputs ...SourceInput) (*Result, error) {
	start := time.Now()
	if len(inputs) == 0 {
		return nil, fmt.Errorf("core: no sources")
	}
	// Cheap precondition before the pipeline spends time inferring
	// schemas: an unmapped type can never yield candidates.
	if len(d.mapping.Paths(typeName)) == 0 {
		return nil, fmt.Errorf("core: type %q has no candidate paths in the mapping", typeName)
	}
	p := &pipelineRun{
		d:        d,
		typeName: typeName,
		inputs:   inputs,
		res:      &Result{Type: typeName, SourceCount: len(inputs)},
	}
	if d.cfg.Incremental {
		p.inc = newIncState()
	}
	if d.cfg.Snapshot != nil && d.cfg.Snapshot.Reuse {
		if err := p.runOne(pipelineStage{StageWarmStart, (*pipelineRun).warmStart}); err != nil {
			return nil, err
		}
		if p.res.WarmStart {
			return d.resume(p, start)
		}
	}
	if err := p.run(d.stages([]pipelineStage{
		{StageInfer, (*pipelineRun).inferSchemas},
		{StageCandidates, (*pipelineRun).findCandidates},
		{StageDescribe, (*pipelineRun).describe},
	}, (*pipelineRun).snapshot)); err != nil {
		return nil, err
	}
	p.finishIncState()
	p.res.Stats.Elapsed = time.Since(start)
	return p.res, nil
}

// WriteXML renders the duplicate clusters in the Fig. 3 dupcluster format.
func (r *Result) WriteXML(w io.Writer) error {
	return cluster.WriteXML(w, r.Clusters, func(i int32) string {
		return r.Candidates[i].Path
	})
}

// PairSet returns the detected pairs as a set of index pairs, convenient
// for evaluation against gold standards.
func (r *Result) PairSet() [][2]int32 {
	out := make([][2]int32, len(r.Pairs))
	for i, p := range r.Pairs {
		out[i] = [2]int32{p.I, p.J}
	}
	return out
}

// StageByName returns the recorded stats of one stage, or false when the
// stage did not run.
func (r *Result) StageByName(name string) (StageStats, bool) {
	for _, st := range r.Stages {
		if st.Name == name {
			return st, true
		}
	}
	return StageStats{}, false
}
