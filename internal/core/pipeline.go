package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/conc"
	"repro/internal/heuristics"
	"repro/internal/od"
	"repro/internal/sim"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xsd"
)

// Stage names, in pipeline order. Each maps onto the paper's six online
// steps: infer prepares the schemas the queries are formulated against;
// candidates is the ingestion stage — Step 1 (candidate query
// formulation & execution) fused with Steps 2–3 (description execution
// and OD generation), consuming one anchor subtree at a time so
// streaming sources can discard each subtree as soon as it is flattened;
// describe finishes Step 3 by building the store indexes over the
// ingested ODs; reduce is Step 4, compare is Step 5 and cluster is
// Step 6.
const (
	StageInfer      = "infer"
	StageCandidates = "candidates"
	StageDescribe   = "describe"
	StageReduce     = "reduce"
	StageCompare    = "compare"
	StageCluster    = "cluster"

	// StageWarmStart replaces infer/candidates/describe when
	// Config.Snapshot.Reuse finds a matching persisted index: it opens
	// the snapshot, verifies the corpus fingerprint and adopts the
	// stored candidates and indexes. Zero items reported means the
	// snapshot missed and the fresh chain ran instead.
	StageWarmStart = "warmstart"
	// StageSnapshot runs after reduce on fresh builds with
	// Config.Snapshot.Save: it stamps the finalized store with the
	// corpus fingerprint and persists it for future warm starts.
	StageSnapshot = "snapshot"
	// StageTraces runs last under Config.Incremental when a snapshot is
	// being saved: the run's replay state persists as the snapshot's
	// trace segment (od.SaveTraces; an Update appends one frame with
	// od.AppendTraces), so a fresh process can Adopt the store and
	// Update it with the same patched recomparisons as an in-process
	// run.
	StageTraces = "traces"
	// StageAdopt is recorded by Adopt: its item count is the number of
	// persisted pair traces restored from the store's snapshot directory
	// (zero when none exist or the segment was rejected — the first
	// Update then recompares all surviving pairs).
	StageAdopt = "adopt"
)

// StageStats reports one executed pipeline stage.
type StageStats struct {
	Name    string
	Items   int // stage-specific unit: sources, candidates, tuples, pruned, comparisons, clusters
	Elapsed time.Duration
}

// Observer receives stage lifecycle events while Detect runs, for
// progress reporting and instrumentation. Implementations must be cheap;
// they run on the pipeline's critical path.
type Observer interface {
	StageStart(name string)
	StageDone(stats StageStats)
}

// ObserverFunc adapts a completion callback to Observer.
type ObserverFunc func(StageStats)

// StageStart implements Observer.
func (f ObserverFunc) StageStart(string) {}

// StageDone implements Observer.
func (f ObserverFunc) StageDone(st StageStats) { f(st) }

// pipelineStage is one named, independently executable unit of Detect.
// run returns the stage's item count for StageStats.
type pipelineStage struct {
	name string
	run  func(*pipelineRun) (items int, err error)
}

// pipelineRun carries the state threaded through the stages of one Detect
// call.
type pipelineRun struct {
	d        *Detector
	typeName string
	inputs   []SourceInput
	res      *Result

	schemas    []*xsd.Schema // resolved per source by the infer stage
	store      od.Store
	comparator sim.Comparator
	filter     sim.ObjectFilter
	tupleCount int // OD tuples flattened during ingestion
	alive      []bool

	fp              string    // corpus fingerprint, computed at most once
	warm            bool      // the warmstart stage adopted a snapshot
	persistedFilter []float64 // filter bounds restored from the snapshot
	filterValues    []float64 // filter bounds in effect after reduce

	inc *incState  // replay traces recorded under Config.Incremental
	upd *updateCtx // non-nil when this run is a Detector.Update
}

// idSpan is the exclusive upper bound of candidate IDs — equal to
// Size() on a fresh build, larger on an updated store whose Remove
// calls left holes in the ID space.
func (p *pipelineRun) idSpan() int {
	if ms, ok := p.store.(od.MutableStore); ok {
		return int(ms.IDSpan())
	}
	return p.store.Size()
}

// addOD routes one flattened candidate to the store: directly on a
// fresh build, or into the update batch buffer (flushed to
// AddAfterFinalize once the source's paths are final) on an Update run.
func (p *pipelineRun) addOD(o *od.OD) {
	if p.upd != nil {
		p.upd.addBuf = append(p.upd.addBuf, o)
		return
	}
	p.store.Add(o)
}

// ingestPath is one compiled (candidate path, description query) unit a
// source's ingest pass matches anchors against: the plain absolute schema
// path, the schema declaration behind it, the compiled Step 1 candidate
// query, and the compiled Step 2 description queries σ.
type ingestPath struct {
	schemaPath string
	el         *xsd.Element
	query      *xpath.Path
	desc       []*xpath.Path
}

// emitFunc receives one candidate anchor during a source's ingest pass.
// pathIdx indexes the ingestPath slice. deferredPath is nil when the
// node's positional path can be read off the tree immediately (doc
// sources); for streaming sources it resolves the path once the pass has
// completed — sibling totals are not final earlier.
type emitFunc func(pathIdx int, node *xmltree.Node, deferredPath func() string) error

// stages returns the pipeline for the current configuration. A fresh
// build runs the full six steps (plus the snapshot stage when one is
// being saved); a warm start already holds finalized indexes and
// candidates, so only reduce/compare/cluster remain. FilterOnly
// truncates either chain after Step 4.
func (d *Detector) stages(warm bool) []pipelineStage {
	var out []pipelineStage
	if !warm {
		out = append(out,
			pipelineStage{StageInfer, (*pipelineRun).inferSchemas},
			pipelineStage{StageCandidates, (*pipelineRun).findCandidates},
			pipelineStage{StageDescribe, (*pipelineRun).describe},
		)
	}
	out = append(out, pipelineStage{StageReduce, (*pipelineRun).reduce})
	if !warm && d.cfg.Snapshot != nil && d.cfg.Snapshot.Save {
		out = append(out, pipelineStage{StageSnapshot, (*pipelineRun).snapshot})
	}
	if !d.cfg.FilterOnly {
		out = append(out,
			pipelineStage{StageCompare, (*pipelineRun).compare},
			pipelineStage{StageCluster, (*pipelineRun).clusterPairs},
		)
		// Trace persistence runs on warm starts too: the adopted
		// snapshot's manifest is untouched, so the new traces chain to
		// it directly.
		if d.cfg.Incremental && d.cfg.Snapshot != nil && d.cfg.Snapshot.Save {
			out = append(out, pipelineStage{StageTraces, (*pipelineRun).persistTraces})
		}
	}
	return out
}

// run drives the stages in order, timing each one, recording StageStats on
// the result and notifying the configured observer.
func (p *pipelineRun) run(stages []pipelineStage) error {
	for _, st := range stages {
		if err := p.runOne(st); err != nil {
			return err
		}
	}
	return nil
}

// runOne executes a single stage with timing, stats and observer
// notifications.
func (p *pipelineRun) runOne(st pipelineStage) error {
	obs := p.d.cfg.Observer
	if obs != nil {
		obs.StageStart(st.name)
	}
	begin := time.Now()
	items, err := runStageGuarded(st, p)
	stats := StageStats{Name: st.name, Items: items, Elapsed: time.Since(begin)}
	p.res.Stages = append(p.res.Stages, stats)
	if obs != nil {
		obs.StageDone(stats)
	}
	return err
}

// runStageGuarded executes one stage body, converting a distributed
// store's typed failure panic into the stage's error return. Store
// query methods have no error channel, so a PartitionedStore reports a
// lost member by panicking with *od.PartitionUnavailableError
// (internal/conc re-raises it across worker goroutines); converting it
// here means Detect/Update fail with a typed, wrapped error — never a
// silently incomplete candidate set, never a crashed process. Any
// other panic is a genuine bug and propagates.
func runStageGuarded(st pipelineStage, p *pipelineRun) (items int, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*od.PartitionUnavailableError)
			if !ok {
				panic(r)
			}
			items, err = 0, fmt.Errorf("core: stage %s: %w", st.name, pe)
		}
	}()
	return st.run(p)
}

// inferSchemas validates the sources and resolves a schema per source,
// inferring one where none was provided (xsd.Infer for documents,
// xsd.InferReader as a streaming pass for stream sources).
func (p *pipelineRun) inferSchemas() (int, error) {
	p.schemas = make([]*xsd.Schema, len(p.inputs))
	for i, src := range p.inputs {
		if err := src.check(); err != nil {
			return 0, fmt.Errorf("core: source %d %v", i, err)
		}
		if s := src.declaredSchema(); s != nil {
			p.schemas[i] = s
			continue
		}
		s, err := src.inferSchema()
		if err != nil {
			return 0, fmt.Errorf("core: source %d: %w", i, err)
		}
		p.schemas[i] = s
	}
	return len(p.inputs), nil
}

// findCandidates is the ingestion stage: Step 1 (candidate query
// formulation & execution) fused with Steps 2–3 (description execution
// and OD generation). Each source runs one ingest pass that emits
// candidate anchors one at a time; every anchor is flattened into an OD
// the moment it arrives and added to the store in batches, so a
// streaming source's subtrees never accumulate. The fusion is what lets
// corpora larger than RAM flow through: by the time the pass moves on,
// all that survives of an anchor is its flat OD.
func (p *pipelineRun) findCandidates() (int, error) {
	candPaths := p.d.mapping.Paths(p.typeName)
	if len(candPaths) == 0 {
		return 0, fmt.Errorf("core: type %q has no candidate paths in the mapping", p.typeName)
	}
	p.store = p.d.newStore()
	for si, src := range p.inputs {
		active, err := p.compilePaths(candPaths, si, src.streaming())
		if err != nil {
			return 0, err
		}
		if len(active) == 0 {
			continue // this source declares none of the candidate paths
		}
		sink := newIngestSink(p, si, active, src.streaming())
		if err := src.ingest(active, sink.emit); err != nil {
			return 0, fmt.Errorf("core: source %d: %w", si, err)
		}
		sink.finish()
	}
	if len(p.res.Candidates) == 0 {
		return 0, fmt.Errorf("core: no candidates found for type %q", p.typeName)
	}
	return len(p.res.Candidates), nil
}

// compilePaths resolves the candidate paths a source declares and
// compiles, per anchor, the candidate query and the description queries σ
// the configured heuristic selects. Streaming sources only ever hold the
// anchor subtree, so σ must select inside it: ancestor ("../..") and
// unrelated (absolute) selections are rejected for them.
func (p *pipelineRun) compilePaths(candPaths []string, si int, streaming bool) ([]ingestPath, error) {
	var active []ingestPath
	schema := p.schemas[si]
	for _, cp := range candPaths {
		el := schema.ElementAt(cp)
		if el == nil {
			continue // this source does not declare the path
		}
		q, err := xpath.Parse(cp)
		if err != nil {
			return nil, fmt.Errorf("core: candidate path %s: %w", cp, err)
		}
		var desc []*xpath.Path
		for _, sel := range p.d.cfg.Heuristic.Select(el) {
			rel := heuristics.RelPath(el, sel)
			if streaming && rel != "." && !strings.HasPrefix(rel, "./") {
				return nil, fmt.Errorf(
					"core: source %d: description path %s selects outside the candidate subtree; streaming ingestion supports descendant selections only — use a DocSource with this heuristic", si, rel)
			}
			rp, err := xpath.Parse(rel)
			if err != nil {
				return nil, fmt.Errorf("core: description path %s: %w", rel, err)
			}
			desc = append(desc, rp)
		}
		active = append(active, ingestPath{schemaPath: cp, el: el, query: q, desc: desc})
	}
	return active, nil
}

// flatten runs the anchor's description queries and produces its OD —
// Steps 2+3 for one candidate. The OD's Object path is filled in by the
// sink (immediately for doc sources, after the pass for streams).
func (p *pipelineRun) flatten(ap *ingestPath, node *xmltree.Node, si int) *od.OD {
	o := &od.OD{Source: si, Node: node}
	for _, n := range xpath.EvalAll(ap.desc, node) {
		name := n.SchemaPath()
		value := n.Text
		if value == "" && p.d.mapping.IsComposite(name) {
			value = n.TextContent()
		}
		o.Tuples = append(o.Tuples, od.Tuple{
			Value: value,
			Name:  name,
			Type:  p.d.mapping.TypeOf(name),
		})
	}
	return o
}

// describe finishes Step 3: the ODs ingested by findCandidates are sealed
// into the store's occurrence and similarity indexes. Its item count is
// the number of OD tuples generated during ingestion.
func (p *pipelineRun) describe() (int, error) {
	p.store.Finalize(p.d.cfg.ThetaTuple)
	p.res.Store = p.store
	return p.tupleCount, nil
}

// reduce is Step 4, comparison reduction via the object filter. On a
// warm start whose snapshot persisted the default filter's bounds, the
// recomputation is skipped and the persisted values are classified
// against the (possibly changed) θcand directly — f(ODi) depends only
// on the indexes and θtuple, both fingerprinted, never on θcand.
func (p *pipelineRun) reduce() (int, error) {
	cfg := p.d.cfg
	n := p.store.Size()
	p.alive = make([]bool, n)
	for i := range p.alive {
		p.alive[i] = true
	}
	if cfg.KeepFilterValues {
		p.res.FilterValues = make([]float64, n)
	}
	if cfg.UseFilter || cfg.KeepFilterValues {
		var filterValues []float64
		_, isDefault := p.filter.(sim.IndexFilter)
		if p.warm && isDefault && len(p.persistedFilter) == n {
			filterValues = p.persistedFilter
		} else if p.inc != nil {
			// Incremental recording: keep each bound's per-tuple replay
			// steps so Update can patch untouched bounds in place.
			filterValues = make([]float64, n)
			p.inc.filter = make([][]sim.FilterStep, n)
			p.d.parallelRange(n, func(i int) {
				filterValues[i], p.inc.filter[i] = sim.FilterTrace(p.store, p.store.OD(int32(i)))
			})
		} else {
			filterValues = make([]float64, n)
			p.d.parallelRange(n, func(i int) {
				filterValues[i] = p.filter.Bound(p.store, p.store.OD(int32(i)))
			})
		}
		p.filterValues = filterValues
		for i := 0; i < n; i++ {
			if cfg.KeepFilterValues {
				p.res.FilterValues[i] = filterValues[i]
			}
			if cfg.UseFilter && filterValues[i] <= cfg.ThetaCand {
				p.alive[i] = false
				p.res.Pruned = append(p.res.Pruned, int32(i))
			}
		}
	}
	p.res.Stats.Candidates = n
	p.res.Stats.Pruned = len(p.res.Pruned)
	return len(p.res.Pruned), nil
}

// compareBatchSize is the candidate range one Step 5 work item covers.
// Batches are claimed by workers through an atomic cursor (work stealing),
// so a batch of expensive objects does not stall the rest of the pool, and
// per-batch outputs merge in batch order for deterministic results.
const compareBatchSize = 32

// compare is Step 5: pairwise comparisons under the configured Comparator
// over the lossless shared-value blocking (or all surviving pairs when
// blocking is disabled).
func (p *pipelineRun) compare() (int, error) {
	cfg := p.d.cfg
	n := p.store.Size()

	numBatches := (n + compareBatchSize - 1) / compareBatchSize
	outs := make([]batchOut, numBatches)

	// Distributed stores can warm a whole batch's similar-value lookups
	// in one pipelined round trip per federation member before the
	// per-pair comparisons start issuing them one by one. Cache-only:
	// answers are bit-identical with or without the prefetch.
	batchStore, _ := p.store.(od.BatchQueryStore)

	runBatch := func(b int) {
		out := &outs[b]
		lo, hi := b*compareBatchSize, (b+1)*compareBatchSize
		if hi > n {
			hi = n
		}
		if batchStore != nil {
			var ts []od.Tuple
			for idx := lo; idx < hi; idx++ {
				if i := int32(idx); p.alive[i] {
					ts = append(ts, p.store.OD(i).Tuples...)
				}
			}
			batchStore.PrefetchSimilar(ts)
		}
		for idx := lo; idx < hi; idx++ {
			i := int32(idx)
			if !p.alive[i] {
				continue
			}
			// Resolve the left-hand OD once per candidate, not once per
			// pair — on a disk store OD() goes through a cache lookup.
			oi := p.store.OD(i)
			compare := func(j int32) {
				out.compared++
				score := p.scorePair(out, oi, p.store.OD(j), i, j)
				switch p.comparator.Classify(score) {
				case sim.ClassDuplicate:
					out.pairs = append(out.pairs, Pair{I: i, J: j, Score: score})
				case sim.ClassPossible:
					out.possible = append(out.possible, Pair{I: i, J: j, Score: score})
				}
			}
			if cfg.DisableBlocking {
				for j := i + 1; j < int32(n); j++ {
					if p.alive[j] {
						compare(j)
					}
				}
			} else {
				for _, j := range p.store.Neighbors(i) {
					if j > i && p.alive[j] {
						compare(j)
					}
				}
			}
		}
	}

	conc.Ranges(cfg.Workers, numBatches, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			runBatch(b)
		}
	})

	for b := range outs {
		p.res.Pairs = append(p.res.Pairs, outs[b].pairs...)
		p.res.PossiblePairs = append(p.res.PossiblePairs, outs[b].possible...)
		p.res.Stats.Compared += outs[b].compared
		if p.inc != nil {
			for _, tp := range outs[b].traces {
				p.inc.pairs[tp.key] = tp.tr
			}
		}
	}
	p.res.Stats.PairsDetected = len(p.res.Pairs)
	return int(p.res.Stats.Compared), nil
}

// tracedPair is one compared pair's replay trace, keyed by pairKey.
type tracedPair struct {
	key int64
	tr  sim.PairTrace
}

// batchOut is what one Step 5 batch produces; the batches' outputs merge
// in batch order.
type batchOut struct {
	pairs    []Pair
	possible []Pair
	traces   []tracedPair
	compared int64
	scratch  sim.PairTrace // every traced pair of the batch is scored into it
}

// scorePair scores one candidate pair, recording its replay trace when
// incremental recording is on. Traces are kept only for pairs with at
// least one similar match — a pair without one scores 0 under any
// corpus size, so there is nothing to patch later — and a kept trace is
// one exact-size copy out of the batch's scratch.
func (p *pipelineRun) scorePair(out *batchOut, oi, oj *od.OD, i, j int32) float64 {
	if p.inc == nil {
		return p.comparator.Compare(p.store, oi, oj)
	}
	tr := &out.scratch
	score := sim.ScoreTrace(p.store, oi, oj, p.d.cfg.ThetaTuple, tr)
	if ns := len(tr.SimU); ns > 0 {
		unions := append(append(make([]int32, 0, ns+len(tr.ConU)), tr.SimU...), tr.ConU...)
		out.traces = append(out.traces, tracedPair{key: pairKey(i, j), tr: sim.PairTrace{SimU: unions[:ns:ns], ConU: unions[ns:]}})
	}
	return score
}

// clusterPairs is Step 6, duplicate clustering via transitive closure.
// The union-find ranges over the full ID span: on an updated store,
// removed IDs stay as permanent singletons and never reach a cluster.
func (p *pipelineRun) clusterPairs() (int, error) {
	p.res.Clusters = cluster.FromPairsFunc(p.idSpan(), len(p.res.Pairs),
		func(i int) (int32, int32) { return p.res.Pairs[i].I, p.res.Pairs[i].J })
	return len(p.res.Clusters), nil
}

// persistTraces is the StageTraces implementation: the run's replay
// state — post-reduce survival, per-pair similarity traces, per-object
// filter-bound traces — is written as the trace segment of the snapshot
// the run saved (or, on a warm start, adopted), chained to its manifest
// digest. It runs after cluster, so the manifest the snapshot stage
// committed is the one the segment chains to. Item count is the number
// of pair traces persisted.
func (p *pipelineRun) persistTraces() (int, error) {
	dir := p.d.cfg.Snapshot.Dir
	p.inc.size, p.inc.alive = p.store.Size(), p.alive
	var err error
	if u := p.upd; u == nil {
		p.inc.chain, err = od.SaveTraces(dir, p.store, p.inc.traceSet())
	} else {
		// An update appends what its own stages changed to the chain it
		// extends; AppendTraces rewrites the segment when it cannot.
		var prev *od.TraceSet
		if u.prev != nil {
			prev = u.prev.traceSet()
		}
		p.inc.chain, err = od.AppendTraces(dir, p.store, u.chain, &od.TraceUpdate{
			Prev: prev, Cur: p.inc.traceSet(),
			Rescored: u.rescored, Dropped: u.dropped, Refiltered: u.refiltered,
		})
	}
	if err != nil {
		return 0, fmt.Errorf("core: traces: %w", err)
	}
	return len(p.inc.pairs), nil
}

// newStore builds the configured Store backend (MemStore by default).
func (d *Detector) newStore() od.Store {
	if d.cfg.NewStore != nil {
		return d.cfg.NewStore()
	}
	return od.NewMemStore()
}

// parallelRange runs fn(i) for i in [0, n) across the configured number
// of workers. Chunks are contiguous so per-index state stays cache
// friendly; fn must only write state owned by its index.
func (d *Detector) parallelRange(n int, fn func(i int)) {
	conc.Ranges(d.cfg.Workers, n, 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
