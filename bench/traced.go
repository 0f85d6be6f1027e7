package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/bench/measure"
	"repro/bench/workgen"
	"repro/internal/core"
	"repro/internal/od"
	"repro/internal/od/odrpc"
	"repro/internal/xmlstream"
	"repro/internal/xmltree"
	"repro/internal/xsd"
)

// layerMetrics collects the per-layer metrics of one traced run.
type layerMetrics map[string]measure.Metric

func (lm layerMetrics) set(name string, v float64, unit string, n int) {
	lm[name] = measure.Metric{Value: v, Unit: unit, N: n, Layer: true}
}

// exact records a count that must repeat between two runs of the same
// code and seed.
func (lm layerMetrics) exact(name string, v float64, unit string, n int) {
	lm[name] = measure.Metric{Value: v, Unit: unit, N: n, Layer: true, Exact: true}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is the traced pass of one workload. Its first half runs
// the workload's real processes once more, briefly, for the figures
// only a process has (boot, resident memory, CPU per request, latency
// per request class, behaviour of reads beside a writer). Its second
// half replays the same inputs in this process, recording spans around
// the calls into each layer and reading the layers' counters at the
// same boundaries. Per-layer metrics come from here only; end-to-end
// metrics never do.
func (e *runEnv) runTraced(w *workload, seed int64, seconds float64, index int) (*measure.Run, error) {
	begin := time.Now()
	ctx := context.Background()
	dir, err := os.MkdirTemp(e.work, w.name+"-traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	chk := &checker{}
	lm := layerMetrics{}
	rec := measure.NewRecorder()
	root := rec.Start("run", -1, seed)

	st, _, err := materialize(w, seed, filepath.Join(dir, "site"))
	if err != nil {
		return nil, err
	}
	// Trace keys come from their own schedule, so no value in them was
	// queried by the read windows before.
	keys := workgen.NewSchedule(st.corpus, seed+1, 1).Client(0)
	requests := make([]workgen.Request, traceKeys)
	for i := range requests {
		requests[i] = keys.Next()
	}

	tp := &tracedPass{w: w, st: st, dir: dir, seed: seed, rec: rec, root: root, lm: lm, chk: chk, requests: requests}
	ph, cli, err := tp.processes(ctx, e, seconds)
	if err != nil {
		return nil, err
	}
	if err := tp.replay(ctx, cli); err != nil {
		return nil, err
	}
	rec.End(root)

	traceFile := filepath.Join(e.out, w.name+".trace.json")
	if err := rec.WriteJSON(traceFile); err != nil {
		return nil, err
	}
	windows := ph.windows
	windows["traced_replay"] = tp.replayWall.Seconds()
	return &measure.Run{
		Workload: w.name, Seed: seed, Trace: true, Index: index, Seconds: seconds,
		Scale: w.scale(st.corpus), Windows: windows, Metrics: lm,
		Attempted: chk.attempted, Failed: chk.failed, Correct: chk.failed == 0,
		Failures: chk.reasons, TraceFile: traceFile,
		WallS: time.Since(begin).Seconds(),
	}, nil
}

// processes is the process half of the traced pass: one batch process
// (the denominator of the tracing overhead), then a daemon through
// short windows — readers alone, then a reader beside the writer
// whatever the workload, because the per-layer table wants the share of
// blocked reads everywhere.
func (tp *tracedPass) processes(ctx context.Context, e *runEnv, seconds float64) (*phases, *procResult, error) {
	w, st, lm, chk := tp.w, tp.st, tp.lm, tp.chk
	cli, err := runProcess(e.bins.dogmatix, st.detectArgs(w, filepath.Join(tp.dir, "cli-store"))...)
	if !chk.ok(err) {
		return nil, nil, err
	}

	storeDir := filepath.Join(st.dir, "store")
	d, err := startDaemon(e.bins.dogmatixd, st.daemonArgs(w, storeDir)...)
	if err != nil {
		return nil, nil, err
	}
	defer d.kill()
	lm.set("dogmatixd.boot_s", d.boot.Seconds(), "s", 1)

	// Transport and client floor: the cheapest request there is.
	cl := newAPIClient(d.url)
	rtts := make([]float64, 0, traceKeys)
	for i := 0; i < traceKeys; i++ {
		t0 := time.Now()
		_, err := cl.Health(ctx)
		rtts = append(rtts, us(time.Since(t0)))
		if err != nil {
			chk.ok(fmt.Errorf("GET /healthz: %w", err))
		}
	}
	lm.set("api.healthz_rtt_us", measure.Median(rtts), "us", len(rtts))

	// Outermost span of every request key: the client round trip
	// against the real daemon.
	v, err := newVerifier(ctx, cl)
	if err != nil {
		return nil, nil, err
	}
	probe := &reader{cl: cl, v: v}
	for i, req := range tp.requests {
		id := tp.rec.Start("client.roundtrip."+req.Class.String(), tp.root, int64(i))
		err := probe.issue(ctx, req)
		tp.rec.End(id)
		chk.ok(err)
	}

	ph := &phases{windows: map[string]float64{}}
	mixed := *w
	mixed.mixed = true
	_, readFor, writeFor, warm := mixed.split(seconds)
	readFor = min(readFor, 3*time.Second)
	writeFor = min(max(writeFor, 3*time.Second), 4*time.Second)
	if err := e.servePhase(ctx, &mixed, st, d, tp.seed, warm, readFor, writeFor, false, ph, chk); err != nil {
		return nil, nil, err
	}

	byClass := map[workgen.Class][]float64{}
	for _, s := range ph.reads {
		byClass[s.class] = append(byClass[s.class], us(s.lat))
	}
	lm.set("api.dup_p50_us", measure.Median(byClass[workgen.Duplicates]), "us", len(byClass[workgen.Duplicates]))
	lm.set("api.similar_hit_p50_us", measure.Median(byClass[workgen.SimilarHit]), "us", len(byClass[workgen.SimilarHit]))
	typo := byClass[workgen.SimilarTypo]
	lm.set("api.similar_typo_p50_us", measure.Median(typo), "us", len(typo))
	p99 := percentileMetric(typo, 99)
	p99.Layer = true
	lm["api.similar_typo_p99_us"] = p99
	lm.set("dogmatixd.rss_mb", ph.daemonRSS, "MB", 1)
	lm.set("dogmatixd.cpu_s_per_kreq", ratio(ph.readCPU, float64(len(ph.reads))/1000), "s", len(ph.reads))

	var ackMS []float64
	for _, a := range ph.acks {
		ackMS = append(ackMS, ms(a.lat))
	}
	lm.set("api.ack_max_ms", measure.Max(ackMS), "ms", len(ackMS))
	lm.set("api.coalesce_width", ratio(float64(ph.metrics.Updates.Applied), float64(ph.metrics.Updates.Batches)), "ratio", int(ph.metrics.Updates.Batches))
	blocked, similar := 0, 0
	for _, s := range ph.mixedReads {
		if s.class == workgen.Duplicates {
			continue
		}
		similar++
		if s.lat > 10*time.Millisecond {
			blocked++
		}
	}
	lm.set("api.similar_blocked_share", ratio(float64(blocked), float64(similar)), "ratio", similar)
	lm.set("api.mixed_read_rps", ratePerSecond(len(ph.mixedReads), ph.writeFrom, lastDone(ph.mixedReads, ph.writeUntil)), "req/s", len(ph.mixedReads))

	// How long until a restarted daemon is ready: over the persisted
	// directory where there is one (servePhase restarted it), from the
	// documents again where the state lived in memory.
	if w.store == storeDisk {
		lm.set("dogmatixd.restart_ready_ms", measure.Median(ph.restartMS), "ms", len(ph.restartMS))
		lm.set("odcodec.write_amp", ratio(float64(ph.dirDelta), float64(ph.xmlSubmitted)), "ratio", len(ph.acks))
	} else {
		r, err := startDaemon(e.bins.dogmatixd, st.daemonArgs(w, storeDir)...)
		if err != nil {
			return nil, nil, err
		}
		lm.set("dogmatixd.restart_ready_ms", ms(r.boot), "ms", 1)
		if err := r.stop(); err != nil {
			return nil, nil, err
		}
	}
	return ph, cli, nil
}

// tracedPass is the state both halves of one traced run share.
type tracedPass struct {
	w        *workload
	st       *site
	dir      string
	seed     int64
	rec      *measure.Recorder
	root     int
	lm       layerMetrics
	chk      *checker
	requests []workgen.Request

	replayWall time.Duration
}

// replay runs the workload's inputs through the layers in process.
func (tp *tracedPass) replay(ctx context.Context, cli *procResult) error {
	begin := time.Now()
	c := tp.st.corpus
	mapping, err := core.ParseMapping(bytes.NewReader(c.Mapping))
	if err != nil {
		return err
	}

	docs, parseWall, err := tp.ingestProbes(mapping)
	if err != nil {
		return err
	}

	// The workload's own configuration, as its batch process runs it.
	cfg, err := tp.w.coreConfig()
	if err != nil {
		return err
	}
	storeScope, memberScope := newSpanScope(tp.rec), newSpanScope(tp.rec)
	mainDir := filepath.Join(tp.dir, "main-store")
	var fed *od.PartitionedStore
	switch tp.w.store {
	case storeDisk:
		cfg.NewStore = func() od.Store { return od.NewDiskStore(mainDir) }
		cfg.Snapshot = &core.SnapshotOptions{Dir: mainDir, Reuse: true, Save: true}
		cfg.Incremental = true
	case storeDist:
		fed = newFederation(memberScope)
		defer fed.Close()
		cfg.NewStore = func() od.Store { return fed }
	}
	inputs := make([]core.SourceInput, len(docs))
	for i, doc := range docs {
		if tp.w.stream {
			inputs[i] = core.FileSource(tp.st.docs[i], nil)
		} else {
			inputs[i] = core.Source{Name: c.Files[i].Name, Doc: doc}
		}
	}
	mainSpan := tp.rec.Start("core.DetectInputs", tp.root, tp.seed)
	obs := &stageObserver{rec: tp.rec, parent: mainSpan, key: tp.seed, prefix: "core.stage."}
	cfg.Observer = obs
	det, err := core.NewDetector(mapping, cfg)
	if err != nil {
		return err
	}
	res, err := det.DetectInputs(c.Type, inputs...)
	detectWall := tp.rec.End(mainSpan)
	if err != nil {
		return fmt.Errorf("traced DetectInputs: %w", err)
	}
	var xmlOut bytes.Buffer
	writeWall := tp.rec.Time("core.WriteXML", tp.root, tp.seed, func() { err = res.WriteXML(&xmlOut) })
	if err != nil {
		return err
	}
	// The batch process ran the same inputs: same output, or the traced
	// pass is describing a different computation.
	got := &reference{det: det, res: res}
	want, err := got.render()
	if err != nil {
		return err
	}
	tp.chk.ok(want.matches(cli))

	traced := detectWall + writeWall
	if !tp.w.stream {
		traced += parseWall
	}
	tp.lm.set("bench.trace_overhead_ratio", ratio(traced.Seconds(), cli.wall.Seconds()), "ratio", 1)
	tp.coreMetrics(obs, res, detectWall)

	tp.kernelProbes(res)
	tp.storeProbes(res)
	if err := tp.codecProbes(res); err != nil {
		return err
	}
	tp.clusterProbe(res)
	if err := tp.handlerProbes(det, res, storeScope, memberScope, fed != nil); err != nil {
		return err
	}
	if fed == nil {
		// Off the dist workload the federation layers are probed on a
		// loopback federation built over the same object descriptions.
		fed = newFederation(memberScope)
		defer fed.Close()
		for _, o := range res.Store.ODs() {
			if o != nil {
				fed.Add(&od.OD{Object: o.Object, Source: o.Source, Tuples: o.Tuples})
			}
		}
		fed.Finalize(res.Store.Theta())
	}
	tp.federationProbes(fed, memberScope)

	if err := tp.persistProbe(ctx, mapping, docs); err != nil {
		return err
	}
	tp.replayWall = time.Since(begin)
	return nil
}

// ingestProbes times the three ingest layers over the corpus files:
// the materializing parser, the streaming scanner over the candidate
// paths, and schema inference.
func (tp *tracedPass) ingestProbes(mapping *core.Mapping) ([]*xmltree.Document, time.Duration, error) {
	c := tp.st.corpus
	var docs []*xmltree.Document
	var parse, scan, infer time.Duration
	for _, f := range c.Files {
		var doc *xmltree.Document
		var err error
		parse += tp.rec.Time("xmltree.Parse", tp.root, tp.seed, func() {
			doc, err = xmltree.Parse(bytes.NewReader(f.Data))
		})
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", f.Name, err)
		}
		docs = append(docs, doc)

		// The scanner only accepts targets rooted in this document.
		var targets []string
		for _, p := range mapping.Paths(c.Type) {
			if strings.HasPrefix(p, "/"+doc.Root.Name+"/") {
				targets = append(targets, p)
			}
		}
		anchors := 0
		scan += tp.rec.Time("xmlstream.Scan", tp.root, tp.seed, func() {
			var sc *xmlstream.Scanner
			if sc, err = xmlstream.NewScanner(bytes.NewReader(f.Data), targets); err != nil {
				return
			}
			for {
				var a *xmlstream.Anchor
				if a, err = sc.Next(); err != nil || a == nil {
					return
				}
				anchors++
			}
		})
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", f.Name, err)
		}
		infer += tp.rec.Time("xsd.Infer", tp.root, tp.seed, func() { _, err = xsd.Infer(doc) })
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", f.Name, err)
		}
	}
	mb := float64(c.XMLBytes()) / (1 << 20)
	tp.lm.set("xmltree.parse_mb_per_s", ratio(mb, parse.Seconds()), "MB/s", len(c.Files))
	tp.lm.set("xmlstream.scan_mb_per_s", ratio(mb, scan.Seconds()), "MB/s", len(c.Files))
	tp.lm.set("xsd.infer_ms", ms(infer), "ms", len(c.Files))
	return docs, parse, nil
}

// coreMetrics reads the stage spans, allocation deltas and Result.Stats
// of the workload's own pipeline run.
func (tp *tracedPass) coreMetrics(obs *stageObserver, res *core.Result, wall time.Duration) {
	stageS := func(name string) float64 {
		s, _ := obs.stage(name)
		return s.elapsed.Seconds()
	}
	tp.lm.set("core.candidates_s", stageS(core.StageCandidates), "s", 1)
	tp.lm.set("core.describe_s", stageS(core.StageDescribe), "s", 1)
	tp.lm.set("core.reduce_s", stageS(core.StageReduce), "s", 1)
	tp.lm.set("core.compare_s", stageS(core.StageCompare), "s", 1)
	tp.lm.set("core.cluster_s", stageS(core.StageCluster), "s", 1)
	reduce, _ := obs.stage(core.StageReduce)
	compare, _ := obs.stage(core.StageCompare)
	tp.lm.set("core.reduce_alloc_mb", float64(reduce.allocBytes)/(1<<20), "MB", 1)
	tp.lm.set("core.compare_alloc_mb", float64(compare.allocBytes)/(1<<20), "MB", 1)
	tp.lm.set("core.compare_b_per_pair", ratio(float64(compare.allocBytes), float64(res.Stats.Compared)), "B", int(res.Stats.Compared))
	tp.lm.exact("core.compared_pairs", float64(res.Stats.Compared), "count", 1)
	tp.lm.exact("core.pruned_objects", float64(res.Stats.Pruned), "count", 1)
	tp.lm.exact("core.pairs_detected", float64(res.Stats.PairsDetected), "count", 1)
	// Useful outcomes per attempt of Step 4: objects it pruned out of
	// the objects it examined.
	tp.lm.set("core.filter_prune_ratio", ratio(float64(res.Stats.Pruned), float64(res.Stats.Candidates)), "ratio", res.Stats.Candidates)
	// The stage spans have to account for the pipeline span they sit in.
	tp.lm.set("core.stage_coverage_ratio", ratio(obs.total().Seconds(), wall.Seconds()), "ratio", len(obs.stages))
}

// newFederation builds an empty loopback federation — odrpc clients
// over in-process MemStore members, the shape `-store dist
// -partitions N` has — with a span recorder around every member.
func newFederation(scope *spanScope) *od.PartitionedStore {
	parts := make([]od.Partition, distPartitions)
	for i := range parts {
		parts[i] = &tracingPartition{
			Partition: odrpc.NewLoopback(od.NewMemStore()),
			name:      fmt.Sprintf("odrpc.member.%d", i),
			scope:     scope,
		}
	}
	return od.NewPartitionedStore(parts, 0)
}
