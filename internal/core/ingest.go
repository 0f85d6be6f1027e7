package core

import (
	"repro/internal/od"
	"repro/internal/xmltree"
)

// ingestBatchSize is how many flattened candidates the sink accumulates
// before appending them to the result and the OD store in one go.
// Batching keeps the per-anchor hot path free of store bookkeeping and is
// the unit a future remote or persistent store backend would ship over
// the wire.
const ingestBatchSize = 256

// pendingCand is one flattened candidate awaiting its batched append.
type pendingCand struct {
	cand     Candidate
	o        *od.OD
	deferred func() string // non-nil: positional path resolves after the pass
}

// pathPatch records a candidate that was appended before its positional
// path was resolvable; finish() fills it in once the pass is complete.
type pathPatch struct {
	idx      int // index into res.Candidates
	o        *od.OD
	deferred func() string
}

// ingestSink consumes one source's ingest pass: it flattens every anchor
// into an OD as it arrives (dropping the subtree immediately for
// streaming sources) and appends candidates and ODs in batches, in the
// candidate-path-major order the result format guarantees.
//
// Doc sources already emit in path-major order, so batches flush
// directly. A streaming source emits in document order, which coincides
// with path-major order only while a single candidate path is active;
// with several active paths the sink parks anchors in per-path buckets
// and concatenates them when the pass ends. Either way the subtrees
// themselves are gone — only flat ODs are ever parked.
type ingestSink struct {
	p         *pipelineRun
	source    int
	paths     []ingestPath
	streaming bool

	batch   []pendingCand   // direct mode: flushed every ingestBatchSize
	buckets [][]pendingCand // bucket mode: per-path, flushed by finish
	patches []pathPatch
}

func newIngestSink(p *pipelineRun, source int, paths []ingestPath, streaming bool) *ingestSink {
	k := &ingestSink{p: p, source: source, paths: paths, streaming: streaming}
	if streaming && len(paths) > 1 {
		k.buckets = make([][]pendingCand, len(paths))
	}
	return k
}

// emit implements emitFunc for one source pass.
func (k *ingestSink) emit(pathIdx int, node *xmltree.Node, deferredPath func() string) error {
	ap := &k.paths[pathIdx]
	o := k.p.flatten(ap, node, k.source)
	cand := Candidate{Source: k.source}
	if !k.streaming {
		cand.Path = node.Path()
		o.Object = cand.Path
	}
	pc := pendingCand{cand: cand, o: o, deferred: deferredPath}
	if k.buckets != nil {
		k.buckets[pathIdx] = append(k.buckets[pathIdx], pc)
		return nil
	}
	k.batch = append(k.batch, pc)
	if len(k.batch) >= ingestBatchSize {
		k.flush()
	}
	return nil
}

// flush appends the current batch to the result and the store.
func (k *ingestSink) flush() {
	for _, pc := range k.batch {
		k.append(pc)
	}
	k.batch = k.batch[:0]
}

// append commits one candidate: result slot, store OD, tuple accounting.
// Candidates whose path is still deferred are recorded for patching.
func (k *ingestSink) append(pc pendingCand) {
	if pc.deferred != nil {
		k.patches = append(k.patches, pathPatch{
			idx: len(k.p.res.Candidates), o: pc.o, deferred: pc.deferred,
		})
	}
	k.p.res.Candidates = append(k.p.res.Candidates, pc.cand)
	k.p.addOD(pc.o)
	k.p.tupleCount += len(pc.o.Tuples)
}

// finish drains everything still parked and resolves deferred positional
// paths — the pass is over, so every sibling total is final.
func (k *ingestSink) finish() {
	k.flush()
	for pi := range k.buckets {
		for _, pc := range k.buckets[pi] {
			k.append(pc)
		}
		k.buckets[pi] = nil
	}
	for _, pt := range k.patches {
		path := pt.deferred()
		k.p.res.Candidates[pt.idx].Path = path
		pt.o.Object = path
	}
	k.patches = nil
}
