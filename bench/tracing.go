package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/bench/measure"
	"repro/internal/core"
	"repro/internal/od"
)

// This file holds the seams the traced pass records spans at. They
// all live on this side of the layers' public interfaces: an Observer
// handed to core.Config, a Store wrapped around Result.Store, a
// Partition wrapped around each federation member. Nothing inside the
// program is instrumented.

// stageObserver turns core.Observer callbacks into child spans of the
// enclosing pipeline span and samples the allocation counter at both
// ends of every stage.
type stageObserver struct {
	rec    *measure.Recorder
	parent int
	key    int64
	prefix string // span name prefix, e.g. "core.stage."

	open    int
	allocAt uint64
	// per stage name, in order of execution
	stages []stageSample
}

type stageSample struct {
	name       string
	items      int
	elapsed    time.Duration
	allocBytes uint64
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// StageStart implements core.Observer.
func (o *stageObserver) StageStart(name string) {
	o.allocAt = totalAlloc()
	o.open = o.rec.Start(o.prefix+name, o.parent, o.key)
}

// StageDone implements core.Observer.
func (o *stageObserver) StageDone(st core.StageStats) {
	o.rec.End(o.open)
	o.stages = append(o.stages, stageSample{
		name: st.Name, items: st.Items, elapsed: st.Elapsed,
		allocBytes: totalAlloc() - o.allocAt,
	})
}

// stage returns the first recorded stage of that name.
func (o *stageObserver) stage(name string) (stageSample, bool) {
	for _, s := range o.stages {
		if s.name == name {
			return s, true
		}
	}
	return stageSample{}, false
}

// total is the summed elapsed time of every recorded stage.
func (o *stageObserver) total() time.Duration {
	var d time.Duration
	for _, s := range o.stages {
		d += s.elapsed
	}
	return d
}

// spanScope says which span store and member calls made right now
// belong to; the probe loops set it before each call into the layer
// above. Recording is off (parent < 0) outside the probes, so the
// hundreds of thousands of store calls of a pipeline run leave no
// spans.
type spanScope struct {
	rec    *measure.Recorder
	parent atomic.Int64 // enclosing span ID, -1 = do not record
	key    atomic.Int64
}

func newSpanScope(rec *measure.Recorder) *spanScope {
	s := &spanScope{rec: rec}
	s.parent.Store(-1)
	return s
}

func (s *spanScope) enter(parent int, key int64) { s.key.Store(key); s.parent.Store(int64(parent)) }
func (s *spanScope) leave()                      { s.parent.Store(-1) }

// child opens a span under the scope's current parent; the returned
// func closes it. Both are no-ops while recording is off.
func (s *spanScope) child(name string) func() {
	parent := s.parent.Load()
	if parent < 0 {
		return func() {}
	}
	id := s.rec.Start(name, int(parent), s.key.Load())
	return func() { s.rec.End(id) }
}

// tracingStore records a span around every SimilarValues call that
// reaches the store through the layer above it (the API handler).
type tracingStore struct {
	od.Store
	scope *spanScope
	// inner, when set, is the scope the store's own callees (federation
	// members) record under: it is entered with this call's span.
	inner *spanScope
}

func (t *tracingStore) SimilarValues(q od.Tuple) []od.ValueMatch {
	parent := t.scope.parent.Load()
	if parent < 0 {
		return t.Store.SimilarValues(q)
	}
	id := t.scope.rec.Start("od.SimilarValues", int(parent), t.scope.key.Load())
	if t.inner != nil {
		t.inner.enter(id, t.scope.key.Load())
		defer t.inner.leave()
	}
	defer t.scope.rec.End(id)
	return t.Store.SimilarValues(q)
}

// tracingPartition records a span around every similar-value call the
// coordinator makes to one federation member. It forwards the optional
// extensions the coordinator looks for (wire counters, backing store).
type tracingPartition struct {
	od.Partition
	name  string
	scope *spanScope
}

func (p *tracingPartition) SimilarValues(t od.Tuple) ([]od.ValueMatch, error) {
	defer p.scope.child(p.name)()
	return p.Partition.SimilarValues(t)
}

func (p *tracingPartition) SimilarValuesBatch(ts []od.Tuple) ([][]od.ValueMatch, error) {
	defer p.scope.child(p.name)()
	return p.Partition.SimilarValuesBatch(ts)
}

// WireStats implements od.WireCounter.
func (p *tracingPartition) WireStats() od.WireStats {
	if wc, ok := p.Partition.(od.WireCounter); ok {
		return wc.WireStats()
	}
	return od.WireStats{}
}

// BackingStore implements od.BackingStore.
func (p *tracingPartition) BackingStore() od.Store {
	if bs, ok := p.Partition.(od.BackingStore); ok {
		return bs.BackingStore()
	}
	return nil
}
