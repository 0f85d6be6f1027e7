package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/bench/measure"
	"repro/bench/workgen"
	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/od"
	"repro/internal/sim"
	"repro/internal/strdist"
	"repro/internal/xmltree"
)

// timeCalls times n calls one by one and measures what they allocate
// together. The sample slice is allocated up front, so the allocation
// figure is the calls' own. Returns nanoseconds per call and bytes per
// call.
func timeCalls(n int, call func(i int)) (ns []float64, bytesPerOp float64) {
	ns = make([]float64, n)
	before := totalAlloc()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		call(i)
		ns[i] = float64(time.Since(t0))
	}
	if n > 0 {
		bytesPerOp = float64(totalAlloc()-before) / float64(n)
	}
	return ns, bytesPerOp
}

// probe wraps one probe loop in a summary span.
func (tp *tracedPass) probe(name string, fn func()) {
	tp.rec.Time("probe."+name, tp.root, tp.seed, fn)
}

// requestsOf draws traceKeys requests of one class from a schedule of
// their own, so a probe has its full sample whatever the class's share
// of the serve mix is.
func (tp *tracedPass) requestsOf(class workgen.Class) []workgen.Request {
	stream := workgen.NewSchedule(tp.st.corpus, tp.seed+3+int64(class), 1).Client(0)
	out := make([]workgen.Request, 0, traceKeys)
	for len(out) < traceKeys {
		if r := stream.Next(); r.Class == class {
			out = append(out, r)
		}
	}
	return out
}

// liveSample draws up to n live object IDs of the store, seeded.
func liveSample(store od.Store, seed int64, n int) []int32 {
	var live []int32
	for id, o := range store.ODs() {
		if o != nil {
			live = append(live, int32(id))
		}
	}
	rng := rand.New(rand.NewSource(seed*131 + 7))
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	if len(live) > n {
		live = live[:n]
	}
	return live
}

// kernelProbes times the similarity kernel and the edit-distance
// primitives against the finished store: sim.Similarity over neighbor
// pairs, sim.Filter over objects, the bounded Levenshtein and the
// deletion-variant generator over vocabulary values and their typos.
func (tp *tracedPass) kernelProbes(res *core.Result) {
	store := res.Store
	theta := store.Theta()
	objects := liveSample(store, tp.seed, traceKeys/4)
	var pairs [][2]*od.OD
	for _, id := range objects {
		nb := store.Neighbors(id)
		for k := 0; k < len(nb) && k < 4 && len(pairs) < traceKeys; k++ {
			pairs = append(pairs, [2]*od.OD{store.OD(id), store.OD(nb[k])})
		}
	}
	tp.probe("sim.Similarity", func() {
		ns, b := timeCalls(len(pairs), func(i int) { sim.Similarity(store, pairs[i][0], pairs[i][1], theta) })
		tp.lm.set("sim.similarity_ns", measure.Median(ns), "ns", len(ns))
		tp.lm.set("sim.similarity_b_per_op", b, "B", len(ns))
	})
	tp.probe("sim.Filter", func() {
		ns, b := timeCalls(len(objects), func(i int) { sim.Filter(store, store.OD(objects[i])) })
		tp.lm.set("sim.filter_ns", measure.Median(ns), "ns", len(ns))
		tp.lm.set("sim.filter_b_per_op", b, "B", len(ns))
	})

	// The store generates deletion variants only for types inside the
	// neighbor-index tier; beyond it the variant count explodes, which
	// is why those types take the scan fallback. Probe what it runs —
	// and where no queried type is in the tier, the tier's smallest
	// budget, so the generator still has a figure.
	typos := tp.requestsOf(workgen.SimilarTypo)
	budgets := map[string]int{}
	for _, st := range store.Stats() {
		if st.Indexed {
			budgets[st.Type] = st.EditBudget
		}
	}
	indexedQueries := false
	for _, t := range tp.st.corpus.QueryTypes {
		_, ok := budgets[t]
		indexedQueries = indexedQueries || ok
	}
	if !indexedQueries {
		for _, t := range tp.st.corpus.QueryTypes {
			budgets[t] = 1
		}
	}
	tp.probe("strdist.LevenshteinBounded", func() {
		ns, _ := timeCalls(len(typos), func(i int) {
			t := typos[i]
			strdist.LevenshteinBounded(t.Base, t.Value, strdist.MaxEditsBelow(theta, max(len(t.Base), len(t.Value))))
		})
		tp.lm.set("strdist.lev_bounded_ns", measure.Median(ns), "ns", len(ns))
	})
	tp.probe("strdist.DeletionVariants", func() {
		var indexed []workgen.Request
		for _, t := range typos {
			if _, ok := budgets[t.Type]; ok {
				indexed = append(indexed, t)
			}
		}
		ns, _ := timeCalls(len(indexed), func(i int) { strdist.DeletionVariants(indexed[i].Value, budgets[indexed[i].Type]) })
		tp.lm.set("strdist.variants_ns", measure.Median(ns), "ns", len(ns))
	})
}

func tupleOf(r workgen.Request) od.Tuple { return od.Tuple{Type: r.Type, Value: r.Value} }

// storeProbes times the od.Store interface of the workload's backend:
// warm and cold similar-value queries, exact lookups, the blocking
// neighbors, and — on a second store of the same backend built from
// the same object descriptions — Finalize, single-object
// AddAfterFinalize and Remove, and the heap the store retains.
func (tp *tracedPass) storeProbes(res *core.Result) {
	store := res.Store
	hits, typos := tp.requestsOf(workgen.SimilarHit), tp.requestsOf(workgen.SimilarTypo)
	tp.probe("od.SimilarValues.hit", func() {
		for _, r := range hits {
			store.SimilarValues(tupleOf(r)) // first sight; the timed pass below is warm
		}
		ns, _ := timeCalls(len(hits), func(i int) { store.SimilarValues(tupleOf(hits[i])) })
		tp.lm.set("od.similar_hit_ns", measure.Median(ns), "ns", len(ns))
	})
	tp.probe("od.SimilarValues.miss", func() {
		ns, _ := timeCalls(len(typos), func(i int) { store.SimilarValues(tupleOf(typos[i])) })
		tp.lm.set("od.similar_miss_ns", measure.Median(ns), "ns", len(ns))
	})
	tp.probe("od.ObjectsWithExact", func() {
		ns, _ := timeCalls(len(hits), func(i int) { store.ObjectsWithExact(tupleOf(hits[i])) })
		tp.lm.set("od.exact_ns", measure.Median(ns), "ns", len(ns))
	})
	ids := liveSample(store, tp.seed+1, traceKeys)
	tp.probe("od.Neighbors", func() {
		ns, _ := timeCalls(len(ids), func(i int) { store.Neighbors(ids[i]) })
		tp.lm.set("od.neighbors_ns", measure.Median(ns), "ns", len(ns))
	})

	tp.probe("od.Finalize", func() {
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		var fresh od.Store
		switch tp.w.store {
		case storeDisk:
			fresh = od.NewDiskStore(filepath.Join(tp.dir, "fresh-store"))
		case storeDist:
			fed := newFederation(newSpanScope(tp.rec))
			defer fed.Close()
			fresh = fed
		default:
			fresh = od.NewMemStore()
		}
		var clones []*od.OD
		for _, o := range store.ODs() {
			if o != nil {
				fresh.Add(&od.OD{Object: o.Object, Source: o.Source, Tuples: o.Tuples})
				clones = append(clones, o)
			}
		}
		t0 := time.Now()
		fresh.Finalize(store.Theta())
		tp.lm.set("od.finalize_ms", ms(time.Since(t0)), "ms", 1)
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		tp.lm.set("od.retained_heap_mb", (float64(after.HeapAlloc)-float64(before.HeapAlloc))/(1<<20), "MB", 1)

		mut, ok := fresh.(od.MutableStore)
		if !ok {
			tp.chk.ok(fmt.Errorf("backend %T is not mutable", fresh))
			return
		}
		const batches = 20
		var added []int32
		addNS, _ := timeCalls(min(batches, len(clones)), func(i int) {
			o := clones[i]
			added = append(added, mut.IDSpan())
			if err := mut.AddAfterFinalize([]*od.OD{{Object: o.Object + "-again", Source: o.Source, Tuples: o.Tuples}}); err != nil {
				tp.chk.ok(fmt.Errorf("AddAfterFinalize: %w", err))
			}
		})
		rmNS, _ := timeCalls(len(added), func(i int) {
			if err := mut.Remove([]int32{added[i]}); err != nil {
				tp.chk.ok(fmt.Errorf("Remove: %w", err))
			}
		})
		tp.lm.set("od.add_after_finalize_ms", measure.Median(addNS)/1e6, "ms", len(addNS))
		tp.lm.set("od.remove_ms", measure.Median(rmNS)/1e6, "ms", len(rmNS))
		runtime.KeepAlive(fresh)
	})
}

// snapshotStore is what the codec probe needs from a reopened
// snapshot, whichever backend wrote it.
type snapshotStore interface {
	SimilarValues(od.Tuple) []od.ValueMatch
	CacheStats() map[string]od.CacheStats
	Close() error
}

// codecProbes times the snapshot codec on the finished store: export
// to a segment directory (a federation snapshot on the dist workload),
// reopen, and the reopened store's similar-value cache under the trace
// keys.
func (tp *tracedPass) codecProbes(res *core.Result) error {
	save := func(dir string) error { return od.Save(dir, res.Store, od.SnapshotMeta{Fingerprint: "bench"}) }
	open := func(dir string) (snapshotStore, error) { return od.OpenDiskStore(dir) }
	if fed, ok := res.Store.(*od.PartitionedStore); ok {
		save = func(dir string) error { return od.SavePartitioned(dir, fed, od.SnapshotMeta{Fingerprint: "bench"}) }
		open = func(dir string) (snapshotStore, error) { return od.OpenPartitioned(dir) }
	}
	const reps = 3
	var saveMS, openMS []float64
	var dir string
	var err error
	tp.probe("odcodec.save+open", func() {
		for rep := 0; rep < reps && err == nil; rep++ {
			dir = filepath.Join(tp.dir, fmt.Sprintf("codec-%d", rep))
			t0 := time.Now()
			if err = save(dir); err != nil {
				return
			}
			saveMS = append(saveMS, ms(time.Since(t0)))
			t0 = time.Now()
			var st snapshotStore
			if st, err = open(dir); err != nil {
				return
			}
			openMS = append(openMS, ms(time.Since(t0)))
			if rep == reps-1 {
				// Half of the trace keys repeat vocabulary values, a
				// quarter never repeat.
				for _, r := range tp.requests {
					if r.Class != workgen.Duplicates {
						st.SimilarValues(tupleOf(r))
					}
				}
				cs := st.CacheStats()["sim"]
				tp.lm.set("od.cache_hit_ratio", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)), "ratio", int(cs.Hits+cs.Misses))
			}
			err = st.Close()
		}
	})
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	size := dirBytes(dir)
	tp.lm.set("odcodec.save_ms", measure.Median(saveMS), "ms", len(saveMS))
	tp.lm.set("odcodec.open_ms", measure.Median(openMS), "ms", len(openMS))
	tp.lm.exact("odcodec.snapshot_bytes", float64(size), "B", 1)
	tp.lm.set("odcodec.bytes_per_od", ratio(float64(size), float64(res.Store.Size())), "B", res.Store.Size())
	return nil
}

// clusterProbe times Step 6 alone — a canary: it should stay under a
// millisecond whatever else changes.
func (tp *tracedPass) clusterProbe(res *core.Result) {
	pairs := res.PairSet()
	tp.probe("cluster.FromPairs", func() {
		ns, _ := timeCalls(20, func(int) { cluster.FromPairs(len(res.Candidates), pairs) })
		tp.lm.set("cluster.from_pairs_ms", measure.Median(ns)/1e6, "ms", len(ns))
	})
}

func requestPath(r workgen.Request) string {
	if r.Class == workgen.Duplicates {
		return "/v1/duplicates/" + strconv.Itoa(int(r.ID))
	}
	return "/v1/similar?" + url.Values{"type": {r.Type}, "value": {r.Value}}.Encode()
}

// handlerProbes sends every trace key through an in-process
// api.Service over the finished result: a span around
// Handler().ServeHTTP encloses the span the wrapped store records
// around SimilarValues (which, on the dist workload, encloses the
// member spans). The client round trips of the same keys against the
// real daemon were recorded before; the difference is the socket and
// the HTTP stack.
func (tp *tracedPass) handlerProbes(det *core.Detector, res *core.Result, storeScope, memberScope *spanScope, federated bool) error {
	served := *res
	ts := &tracingStore{Store: res.Store, scope: storeScope}
	if federated {
		ts.inner = memberScope
	}
	served.Store = ts
	svc, err := api.New(api.Config{Detector: det, Result: &served})
	if err != nil {
		return err
	}
	defer svc.Shutdown(context.Background())
	handler := svc.Handler()

	ids := make([]int, len(tp.requests))
	tp.probe("api.Handler", func() {
		for i, r := range tp.requests {
			req := httptest.NewRequest(http.MethodGet, requestPath(r), nil)
			rr := httptest.NewRecorder()
			id := tp.rec.Start("api.handler."+r.Class.String(), tp.root, int64(i))
			storeScope.enter(id, int64(i))
			handler.ServeHTTP(rr, req)
			storeScope.leave()
			tp.rec.End(id)
			ids[i] = id
			if rr.Code != http.StatusOK {
				tp.chk.ok(fmt.Errorf("in-process %s: status %d", requestPath(r), rr.Code))
			}
		}
	})

	spans := tp.rec.Spans()
	self := measure.SelfTimes(spans)
	rtt := map[int64]float64{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "client.roundtrip.") {
			rtt[s.Key] = s.Duration()
		}
	}
	var similarSelf, dupSelf, overhead []float64
	for i, r := range tp.requests {
		if r.Class == workgen.Duplicates {
			dupSelf = append(dupSelf, self[ids[i]])
		} else {
			similarSelf = append(similarSelf, self[ids[i]])
		}
		overhead = append(overhead, rtt[int64(i)]-spans[ids[i]].Duration())
	}
	tp.lm.set("api.similar_handler_us", measure.Median(similarSelf), "us", len(similarSelf))
	tp.lm.set("api.duplicates_handler_us", measure.Median(dupSelf), "us", len(dupSelf))
	tp.lm.set("api.http_overhead_us", measure.Median(overhead), "us", len(overhead))
	return nil
}

// federationProbes measures the federation layers on fed: one member
// through its odrpc client against the same member's store called
// directly, then federated queries with a span per member call, with
// the coordinator's routing, wire and cache counters read around them.
func (tp *tracedPass) federationProbes(fed *od.PartitionedStore, memberScope *spanScope) {
	// Fresh keys: nothing below may be answered from a cache filled by
	// an earlier probe.
	stream := workgen.NewSchedule(tp.st.corpus, tp.seed+2, 1).Client(0)
	var queries []workgen.Request
	for len(queries) < traceKeys {
		if r := stream.Next(); r.Class != workgen.Duplicates {
			queries = append(queries, r)
		}
	}

	routing, wire, cache := fed.RoutingStats(), wireBytes(fed), fed.CacheStats()["sim"]
	var fanned []int
	tp.probe("od.PartitionedStore.SimilarValues", func() {
		for i, r := range queries {
			id := tp.rec.Start("od.SimilarValues", tp.root, int64(i))
			memberScope.enter(id, int64(i))
			fed.SimilarValues(tupleOf(r))
			memberScope.leave()
			tp.rec.End(id)
			fanned = append(fanned, id)
		}
	})
	routingAfter, cacheAfter := fed.RoutingStats(), fed.CacheStats()["sim"]
	n := float64(len(queries))
	memberQueries := float64(routingAfter.MemberQueries - routing.MemberQueries)
	memberSkips := float64(routingAfter.MemberSkips - routing.MemberSkips)
	tp.lm.exact("odrpc.wire_b_per_query", ratio(float64(wireBytes(fed)-wire), n), "B", len(queries))
	tp.lm.exact("od.member_rpcs_per_query", ratio(memberQueries, n), "count", len(queries))
	tp.lm.set("od.routing_skip_ratio", ratio(memberSkips, memberSkips+memberQueries), "ratio", int(memberSkips+memberQueries))
	hits, misses := float64(cacheAfter.Hits-cache.Hits), float64(cacheAfter.Misses-cache.Misses)
	tp.lm.set("od.merge_cache_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))

	// Self time of the coordinator: the federated call minus what its
	// member calls cover (they run in parallel, so that is about the
	// slowest one), over the queries that reached a member.
	spans := tp.rec.Spans()
	self := measure.SelfTimes(spans)
	hasMember := map[int]bool{}
	var memberUS []float64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "odrpc.member.") {
			hasMember[s.Parent] = true
			memberUS = append(memberUS, s.Duration())
		}
	}
	var fanout []float64
	for _, id := range fanned {
		if hasMember[id] {
			fanout = append(fanout, self[id])
		}
	}
	tp.lm.set("od.fanout_self_us", measure.Median(fanout), "us", len(fanout))
	tp.lm.set("odrpc.call_us", measure.Median(memberUS), "us", len(memberUS))
}

// wireBytes sums the bytes every member's transport moved so far.
func wireBytes(fed *od.PartitionedStore) uint64 {
	var n uint64
	for _, ws := range fed.MemberWireStats() {
		n += ws.BytesOut + ws.BytesIn
	}
	return n
}

// persistProbe measures the layers only a persisting deployment
// exercises, on a disk-backed replica of the corpus configured like a
// disk daemon (DiskStore, replay traces, snapshot after every run): the
// snapshot and trace stages of the build, the stages and replay
// counters of one update batch, the trace segment's save and load, the
// bytes an update adds to the directory, and what Service.Submit costs
// on top of the pipeline stages it runs.
func (tp *tracedPass) persistProbe(ctx context.Context, mapping *core.Mapping, docs []*xmltree.Document) error {
	c := tp.st.corpus
	dir := filepath.Join(tp.dir, "persist-store")
	cfg, err := tp.w.coreConfig()
	if err != nil {
		return err
	}
	cfg.Incremental = true
	cfg.NewStore = func() od.Store { return od.NewDiskStore(dir) }
	cfg.Snapshot = &core.SnapshotOptions{Dir: dir, Save: true}
	span := tp.rec.Start("persist.DetectInputs", tp.root, tp.seed)
	build := &stageObserver{rec: tp.rec, parent: span, key: tp.seed, prefix: "persist.stage."}
	cfg.Observer = build
	det, err := core.NewDetector(mapping, cfg)
	if err != nil {
		return err
	}
	inputs := make([]core.SourceInput, len(docs))
	for i, doc := range docs {
		inputs[i] = core.Source{Name: c.Files[i].Name, Doc: doc}
	}
	res, err := det.DetectInputs(c.Type, inputs...)
	tp.rec.End(span)
	if err != nil {
		return fmt.Errorf("persist probe build: %w", err)
	}
	snap, _ := build.stage(core.StageSnapshot)
	traces, _ := build.stage(core.StageTraces)
	tp.lm.set("core.snapshot_s", snap.elapsed.Seconds(), "s", 1)
	tp.lm.set("core.traces_s", traces.elapsed.Seconds(), "s", 1)

	batch := c.UpdateBatch(0)
	src, err := parseSource(batch.Doc)
	if err != nil {
		return err
	}
	before := dirBytes(dir)
	span = tp.rec.Start("core.Update", tp.root, tp.seed)
	build.parent, build.prefix, build.stages = span, "update.stage.", nil
	updated, err := det.Update(res, core.UpdateBatch{Add: []core.SourceInput{src}, Remove: batch.RemovedIDs})
	tp.rec.End(span)
	if err != nil {
		return fmt.Errorf("persist probe update: %w", err)
	}
	apply, _ := build.stage(core.StageUpdate)
	tp.lm.set("core.update_apply_s", apply.elapsed.Seconds(), "s", 1)
	tp.lm.exact("core.patched_pairs", float64(updated.Stats.Patched), "count", 1)
	tp.lm.set("core.replay_ratio", ratio(float64(updated.Stats.Patched), float64(updated.Stats.Patched+updated.Stats.Compared)), "ratio", int(updated.Stats.Patched+updated.Stats.Compared))
	if tp.w.store != storeDisk {
		// A disk daemon reported the figure of its real directory.
		tp.lm.set("odcodec.write_amp", ratio(float64(dirBytes(dir)-before), float64(len(batch.Doc.Data))), "ratio", 1)
	}

	const reps = 3
	var saveMS, loadMS []float64
	tp.probe("odcodec.traces", func() {
		for rep := 0; rep < reps && err == nil; rep++ {
			t0 := time.Now()
			if err = updated.SaveTraces(dir); err != nil {
				return
			}
			saveMS = append(saveMS, ms(time.Since(t0)))
			t0 = time.Now()
			var set *od.TraceSet
			set, err = od.LoadTraces(updated.Store)
			loadMS = append(loadMS, ms(time.Since(t0)))
			if err == nil && set == nil {
				err = fmt.Errorf("no trace segment to load back")
			}
		}
	})
	if err != nil {
		return fmt.Errorf("trace segment probe: %w", err)
	}
	tp.lm.set("odcodec.trace_save_ms", measure.Median(saveMS), "ms", len(saveMS))
	tp.lm.set("odcodec.trace_load_ms", measure.Median(loadMS), "ms", len(loadMS))

	// Service.Submit on top of the pipeline: queueing, view building,
	// acknowledgement.
	build.stages = nil
	build.prefix = "submit.stage."
	svc, err := api.New(api.Config{Detector: det, Result: updated, PipelinePersists: true})
	if err != nil {
		return err
	}
	defer svc.Shutdown(ctx)
	subs := workgen.NewSubmissions(c, tp.seed, updated.SourceCount)
	var selfMS []float64
	for k := 0; k < reps; k++ {
		sub := subs.Next()
		doc, err := xmltree.Parse(bytes.NewReader(sub.XML))
		if err != nil {
			return err
		}
		span := tp.rec.Start("api.Submit", tp.root, int64(k))
		build.parent, build.stages = span, nil
		_, err = svc.Submit(ctx, []core.SourceInput{core.Source{Name: sub.Name, Doc: doc}}, sub.Remove)
		wall := tp.rec.End(span)
		if !tp.chk.ok(err) {
			continue
		}
		selfMS = append(selfMS, ms(wall-build.total()))
	}
	tp.lm.set("api.submit_self_ms", measure.Median(selfMS), "ms", len(selfMS))
	return nil
}
