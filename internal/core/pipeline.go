package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
	// the snapshot and verifies the corpus fingerprint, and the run
	// continues as Adopt plus a zero-batch Update (stages adopt, update,
	// then Steps 4–6), replaying the persisted traces. Zero items
	// reported means the snapshot missed and the fresh chain ran
	// instead.
	StageWarmStart = "warmstart"
	// StageSnapshot runs after reduce on fresh builds with
	// Config.Snapshot.Save: it stamps the finalized store with the
	// corpus fingerprint and persists it for future warm starts.
	StageSnapshot = "snapshot"
	// StageTraces runs last under Config.Incremental when a snapshot is
	// being saved: the run's replay state persists as the snapshot's
	// trace segment (od.AppendTraces: one frame appended to the chain
	// the run extends, or the whole segment), so a fresh process can
	// Adopt the store and Update it with the same patched
	// recomparisons as an in-process run.
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
	tupleCount int // OD tuples flattened during ingestion
	alive      []bool

	fp string // corpus fingerprint, computed at most once

	inc *incState  // replay traces recorded under Config.Incremental
	upd *updateCtx // non-nil when this run is a Detector.Update

	// Steps 4–6 run as an update of a previous state on every run. A
	// fresh Detect updates the empty state: prev is nil, every object is
	// new (newFrom = 0) and nothing is dirty.
	prev    *incState // replay state the run extends; nil = nothing to replay
	newFrom int32     // IDs at or above this are new in this run
	// exactDirty marks pre-existing live IDs holding a changed key:
	// their pairwise softIDF terms may have changed, so their pairs
	// recompare. filterDirty is the wider θtuple-similar closure: their
	// Step 4 bounds recompute. filterDirty ⊇ exactDirty whenever the
	// changed values still exist.
	exactDirty  map[int32]bool
	filterDirty map[int32]bool
	// chain is prev's trace chain when it still describes the DiskStore
	// the run extends (zero otherwise): the snapshot stage leaves the
	// merge for later while it is appendable, and the traces stage
	// extends it.
	chain od.TraceChain
	// rescored, dropped and refiltered are what the run changed in
	// prev's replay state — pair keys compared for real, prev pair keys
	// the patch loop dropped, filter slots recorded anew or cleared: the
	// traces stage's patch frame, with nothing diffed. Collected only
	// when traces are recorded against a prev.
	rescored   []int64
	dropped    []int64
	refiltered []int32
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
// path, the compiled Step 1 candidate query, and the compiled Step 2
// description queries σ.
type ingestPath struct {
	schemaPath string
	query      *xpath.Path
	desc       []*xpath.Path
}

// emitFunc receives one candidate anchor during a source's ingest pass.
// pathIdx indexes the ingestPath slice. deferredPath is nil when the
// node's positional path can be read off the tree immediately (doc
// sources); for streaming sources it resolves the path once the pass has
// completed — sibling totals are not final earlier.
type emitFunc func(pathIdx int, node *xmltree.Node, deferredPath func() string) error

// stages returns the pipeline for the current configuration: the
// ingestion head — a fresh build's infer/candidates/describe, an
// update's update stage — then Steps 4–6, which every run shares.
// snapshot is the head's StageSnapshot body, run after reduce when a
// snapshot is being saved; FilterOnly truncates the chain after Step 4.
func (d *Detector) stages(head []pipelineStage, snapshot func(*pipelineRun) (int, error)) []pipelineStage {
	out := append(head, pipelineStage{StageReduce, (*pipelineRun).reduce})
	save := d.cfg.Snapshot != nil && d.cfg.Snapshot.Save
	if save {
		out = append(out, pipelineStage{StageSnapshot, snapshot})
	}
	if !d.cfg.FilterOnly {
		out = append(out,
			pipelineStage{StageCompare, (*pipelineRun).compare},
			pipelineStage{StageCluster, (*pipelineRun).clusterPairs},
		)
		if d.cfg.Incremental && save {
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
		active = append(active, ingestPath{schemaPath: cp, query: q, desc: desc})
	}
	return active, nil
}

// flatten runs the anchor's description queries and produces its OD —
// Steps 2+3 for one candidate. The OD's Object path is filled in by the
// sink (immediately for doc sources, after the pass for streams).
func (p *pipelineRun) flatten(ap *ingestPath, node *xmltree.Node, si int) *od.OD {
	o := &od.OD{Source: si}
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

// reduce is Step 4, comparison reduction via the object filter (Sec.
// 5.2), computed as an update of the previous state: a new or
// filter-dirty object computes its bound, and every other live object
// replays its recorded trace under the new |ΩT| — bit-identical to
// recomputing, at the cost of a few logarithms. Without filter traces
// (a fresh Detect, a trace-less prev) every bound computes.
func (p *pipelineRun) reduce() (int, error) {
	cfg := p.d.cfg
	span := p.idSpan()
	liveN := p.store.Size()
	ms, _ := p.store.(od.MutableStore)
	p.alive = make([]bool, span)
	for id := range p.alive {
		p.alive[id] = ms == nil || ms.Alive(int32(id))
	}

	if cfg.UseFilter || cfg.KeepFilterValues {
		var prevSteps [][]sim.FilterStep
		if p.prev != nil {
			prevSteps = p.prev.Filter
		}
		filterValues := make([]float64, span)
		var refiltered []bool // per slot: its trace was recorded anew or cleared
		if p.inc != nil {
			p.inc.Filter = make([][]sim.FilterStep, span)
			if p.prev != nil {
				refiltered = make([]bool, span)
			}
		}
		p.d.parallelRange(span, func(i int) {
			id := int32(i)
			if !p.alive[i] {
				filterValues[i] = math.NaN()
				if refiltered != nil {
					refiltered[i] = i < len(p.prev.Filter) && p.prev.Filter[i] != nil
				}
				return
			}
			var steps []sim.FilterStep
			replayable := id < p.newFrom && !p.filterDirty[id] &&
				i < len(prevSteps) && prevSteps[i] != nil
			switch {
			case replayable:
				steps = prevSteps[i]
				filterValues[i] = sim.ReplayFilter(liveN, steps)
			case p.inc != nil:
				filterValues[i], steps = sim.FilterTrace(p.store, p.store.OD(id))
			default:
				filterValues[i] = sim.Filter(p.store, p.store.OD(id))
			}
			if p.inc != nil {
				p.inc.Filter[i] = steps
			}
			if refiltered != nil {
				refiltered[i] = !replayable
			}
		})
		for i, r := range refiltered {
			if r {
				p.refiltered = append(p.refiltered, int32(i))
			}
		}
		if cfg.KeepFilterValues {
			p.res.FilterValues = filterValues
		}
		if cfg.UseFilter {
			for i, v := range filterValues {
				if p.alive[i] && v <= cfg.ThetaCand {
					p.alive[i] = false
					p.res.Pruned = append(p.res.Pruned, int32(i))
				}
			}
		}
	}
	p.res.Stats.Candidates = liveN
	p.res.Stats.Pruned = len(p.res.Pruned)
	return len(p.res.Pruned), nil
}

// compareBatchSize is the number of recompare-set objects one Step 5
// work item covers. Batches are claimed by workers through an atomic
// cursor (work stealing), so a batch of expensive objects does not stall
// the rest of the pool, and per-batch outputs merge in batch order.
const compareBatchSize = 32

// compare is Step 5: pairwise comparisons under the Sec. 5.1 measure
// and the Def. 6 classifier over the lossless shared-value blocking (or
// all surviving pairs when blocking is disabled), computed as an update
// of the previous state. Whether two survivors are blocked together
// depends only on their own values; what an update changes is which
// objects survive and the softIDF terms behind each score. So pairs
// with an endpoint in the recompare set — new objects, exact-dirty
// objects and objects without a previous comparison — are compared for
// real, and every other previously compared pair is patched by
// replaying its trace under the new |ΩT|. A fresh Detect, with no
// previous state, compares every pair.
func (p *pipelineRun) compare() (int, error) {
	cfg := p.d.cfg
	span := p.idSpan()
	inR := make([]bool, span)
	var list []int32
	for id := int32(0); id < int32(span); id++ {
		if p.alive[id] && (id >= p.newFrom || p.exactDirty[id] || p.prev == nil ||
			int(id) >= len(p.prev.Alive) || !p.prev.Alive[id]) {
			inR[id] = true
			list = append(list, id)
		}
	}

	numBatches := (len(list) + compareBatchSize - 1) / compareBatchSize
	outs := make([]batchOut, numBatches, numBatches+1)
	// Distributed stores can warm a whole batch's similar-value lookups
	// in one pipelined round trip per federation member before the
	// per-pair comparisons start issuing them one by one. Cache-only:
	// answers are bit-identical with or without the prefetch.
	batchStore, _ := p.store.(od.BatchQueryStore)
	// Every compared object resolves its tuples' postings once, on its
	// first pair; later pairs read them by (id, slot).
	post := sim.NewPostings(p.store, span)
	runBatch := func(b int) {
		out := &outs[b]
		batch := list[b*compareBatchSize : min((b+1)*compareBatchSize, len(list))]
		if batchStore != nil {
			var ts []od.Tuple
			for _, i := range batch {
				ts = append(ts, p.store.OD(i).Tuples...)
			}
			batchStore.PrefetchSimilar(ts)
		}
		for _, i := range batch {
			// Resolve the left-hand OD once per object, not once per
			// pair — on a disk store OD() goes through a cache lookup.
			oi := p.store.OD(i)
			compare := func(j int32) {
				if !p.alive[j] || inR[j] && j <= i {
					return // pruned, or compared from j's side
				}
				x, y, ox, oy := i, j, oi, p.store.OD(j)
				if y < x {
					x, y, ox, oy = y, x, oy, ox
				}
				out.compared++
				out.classify(&cfg, x, y, p.scorePair(out, post, ox, oy, x, y))
			}
			if cfg.DisableBlocking {
				for j := int32(0); j < int32(span); j++ {
					compare(j)
				}
			} else {
				for _, j := range p.store.Neighbors(i) {
					compare(j)
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
		p.res.Stats.Compared += outs[b].compared
		if p.inc != nil {
			for _, tp := range outs[b].traces {
				p.inc.Pairs[tp.key] = tp.tr
				if p.prev != nil {
					p.rescored = append(p.rescored, tp.key)
				}
			}
		}
	}

	// Patch the survivors: previously compared, both endpoints clean and
	// still alive. Their matching is unchanged, so the recorded softIDF
	// unions replayed under the new corpus size give the exact score.
	if p.prev != nil {
		var patched batchOut
		liveN := p.store.Size()
		for key, tr := range p.prev.Pairs {
			i, j := od.UnpairKey(key)
			if !p.alive[i] || !p.alive[j] || inR[i] || inR[j] {
				if p.inc != nil {
					if _, rescored := p.inc.Pairs[key]; !rescored {
						p.dropped = append(p.dropped, key)
					}
				}
				continue
			}
			p.res.Stats.Patched++
			patched.classify(&cfg, i, j, sim.ReplayScore(liveN, tr))
			if p.inc != nil {
				p.inc.Pairs[key] = tr
			}
		}
		outs = append(outs, patched)
	}

	for b := range outs {
		p.res.Pairs = append(p.res.Pairs, outs[b].pairs...)
		p.res.PossiblePairs = append(p.res.PossiblePairs, outs[b].possible...)
	}
	sortPairsByID(p.res.Pairs)
	sortPairsByID(p.res.PossiblePairs)
	p.res.Stats.PairsDetected = len(p.res.Pairs)
	return int(p.res.Stats.Compared), nil
}

// sortPairsByID orders pairs (I, J) lexicographically — the order of a
// fresh Detect's batches.
func sortPairsByID(pairs []Pair) {
	slices.SortFunc(pairs, func(a, b Pair) int {
		if c := cmp.Compare(a.I, b.I); c != 0 {
			return c
		}
		return cmp.Compare(a.J, b.J)
	})
}

// tracedPair is one compared pair's replay trace, keyed by od.PairKey.
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

// classify files one scored pair as a duplicate (Def. 6) or, in the
// θpossible band when set, a possible duplicate (C2, Sec. 2.2).
func (out *batchOut) classify(cfg *Config, i, j int32, score float64) {
	switch {
	case sim.Classify(score, cfg.ThetaCand):
		out.pairs = append(out.pairs, Pair{I: i, J: j, Score: score})
	case cfg.ThetaPossible > 0 && score > cfg.ThetaPossible:
		out.possible = append(out.possible, Pair{I: i, J: j, Score: score})
	}
}

// scorePair scores one candidate pair, recording its replay trace when
// incremental recording is on. Traces are kept only for pairs with at
// least one similar match — a pair without one scores 0 under any
// corpus size, so there is nothing to patch later — and a kept trace is
// one exact-size copy out of the batch's scratch.
func (p *pipelineRun) scorePair(out *batchOut, post *sim.Postings, oi, oj *od.OD, i, j int32) float64 {
	if p.inc == nil {
		return sim.Score(post, oi, oj, p.d.cfg.ThetaTuple)
	}
	tr := &out.scratch
	score := sim.ScoreTrace(post, oi, oj, p.d.cfg.ThetaTuple, tr)
	if ns := len(tr.SimU); ns > 0 {
		unions := append(append(make([]int32, 0, ns+len(tr.ConU)), tr.SimU...), tr.ConU...)
		out.traces = append(out.traces, tracedPair{key: od.PairKey(i, j), tr: sim.PairTrace{SimU: unions[:ns:ns], ConU: unions[ns:]}})
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
// filter-bound traces — persists as the trace segment of the snapshot
// in the configured directory. od.AppendTraces appends what the run
// changed as one frame to the chain it extends, and writes the whole
// segment when there is no chain to extend (a fresh build, a warm start
// without traces). It runs after cluster, so the manifest the snapshot
// stage committed is the one the segment chains to. Item count is the
// number of pair traces persisted.
func (p *pipelineRun) persistTraces() (int, error) {
	p.inc.Size, p.inc.Alive = p.store.Size(), p.alive
	up := &od.TraceUpdate{
		Cur:      p.inc.TraceSet,
		Rescored: p.rescored, Dropped: p.dropped, Refiltered: p.refiltered,
	}
	if p.prev != nil {
		up.Prev = p.prev.TraceSet
	}
	chain, err := od.AppendTraces(p.d.cfg.Snapshot.Dir, p.store, p.chain, up)
	if err != nil {
		return 0, fmt.Errorf("core: traces: %w", err)
	}
	p.inc.Chain = chain
	return len(p.inc.Pairs), nil
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
