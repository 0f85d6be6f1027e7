package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/bench/measure"
	"repro/bench/workgen"
	"repro/internal/api"
)

// runEnv is what every run of one invocation shares.
type runEnv struct {
	bins *binaries
	work string // scratch directory of this invocation, under the checkout
	out  string // where trace files go
}

// site is one materialized corpus: the generated inputs written where
// the programs can read them.
type site struct {
	dir     string
	corpus  *workgen.Corpus
	mapping string
	docs    []string
}

// materialize generates the workload's corpus from the seed and writes
// it under dir. Its duration is the generation half of setup_s.
func materialize(w *workload, seed int64, dir string) (*site, time.Duration, error) {
	begin := time.Now()
	c, err := workgen.Generate(w.corpus, seed)
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	s := &site{dir: dir, corpus: c, mapping: filepath.Join(dir, "mapping.txt")}
	if err := os.WriteFile(s.mapping, c.Mapping, 0o644); err != nil {
		return nil, 0, err
	}
	for _, f := range c.Files {
		path := filepath.Join(dir, f.Name)
		if err := os.WriteFile(path, f.Data, 0o644); err != nil {
			return nil, 0, err
		}
		s.docs = append(s.docs, path)
	}
	return s, time.Since(begin), nil
}

// baseArgs are the flags every dogmatix/dogmatixd invocation of the
// workload carries.
func (s *site) baseArgs(w *workload) []string {
	return append([]string{"-map", s.mapping, "-type", s.corpus.Type}, w.detectFlags()...)
}

// daemonArgs boots dogmatixd from the corpus documents.
func (s *site) daemonArgs(w *workload, storeDir string) []string {
	args := append(s.baseArgs(w), w.storeFlags(storeDir)...)
	return append(args, s.docs...)
}

// restartArgs serves the state a disk daemon persisted, no documents.
func (s *site) restartArgs(w *workload, storeDir string) []string {
	return append(s.baseArgs(w), "-store", "disk", "-store-dir", storeDir)
}

// detectArgs is the batch `dogmatix` run: documents in, dupcluster
// XML on stdout, the pair list (for the parity check) on stderr. Disk
// workloads persist the indexes and replay traces for a later -update.
func (s *site) detectArgs(w *workload, storeDir string) []string {
	args := append(s.baseArgs(w), "-pairs")
	if w.stream {
		args = append(args, "-stream")
	}
	args = append(args, w.storeFlags(storeDir)...)
	if w.store == storeDisk {
		args = append(args, "-reuse-index")
	}
	return append(args, s.docs...)
}

// writeBatch writes an update batch's document under the site.
func (s *site) writeBatch(b workgen.UpdateBatch) (string, error) {
	path := filepath.Join(s.dir, b.Doc.Name)
	return path, os.WriteFile(path, b.Doc.Data, 0o644)
}

// updateArgs is the fresh-process `dogmatix -update` against storeDir.
func (s *site) updateArgs(w *workload, storeDir, doc string, b workgen.UpdateBatch) []string {
	args := append(s.baseArgs(w), "-pairs", "-update", "-store-dir", storeDir)
	for _, r := range b.Remove {
		args = append(args, "-remove", r)
	}
	return append(args, doc)
}

// submitArgs is the fresh-process `dogmatix submit` against a daemon.
func submitArgs(url, doc string, b workgen.UpdateBatch) []string {
	args := []string{"submit", "-daemon", url}
	for _, r := range b.Remove {
		args = append(args, "-remove", r)
	}
	return append(args, doc)
}

// phases collects everything the untraced run measured.
type phases struct {
	setup   []float64 // s, one per set-up repetition
	detect  []float64 // s, one per batch process
	update  []float64 // s, one per update process
	peakRSS float64   // MB, max over the `procs` batch children
	procs   int
	f1      float64

	reads                  []readSample // read-only window
	readFrom, readUntil    time.Time
	mixedReads             []readSample // reader beside the writer (mixed only)
	acks                   []ackSample
	writeFrom, writeUntil  time.Time
	restartMS              []float64
	daemonRSS              float64      // MB, VmHWM at the end of the windows
	readCPU                float64      // CPU seconds the daemon spent over the read window
	metrics                *api.Metrics // /metrics after the write window
	windows                map[string]float64
	xmlSubmitted, dirDelta int64
}

// split divides --seconds over the workload's measured phases.
func (w *workload) split(seconds float64) (batch, read, write, warm time.Duration) {
	d := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	return d(w.batchShare), d(w.readShare), d(w.writeShare), d(warmupShare)
}

// runUntraced takes one workload through its lifecycle with real
// processes and returns the end-to-end metrics.
func (e *runEnv) runUntraced(w *workload, seed int64, seconds float64, index int) (*measure.Run, error) {
	begin := time.Now()
	ctx := context.Background()
	dir, err := os.MkdirTemp(e.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	chk := &checker{}
	ph := &phases{windows: map[string]float64{}}
	batchFor, readFor, writeFor, warm := w.split(seconds)

	// Set-up repetitions: generate, boot, stop. The last one stays up
	// as the daemon the windows run against.
	var main *daemon
	var st *site
	for rep := 0; rep < setupReps; rep++ {
		if rep == setupReps-1 {
			// The batch phase runs between the throwaway set-ups and the
			// main one, so no idle daemon sits beside the timed processes.
			if err := e.batchPhase(w, st, dir, batchFor, ph, chk); err != nil {
				return nil, err
			}
		}
		s, gen, err := materialize(w, seed, filepath.Join(dir, fmt.Sprintf("setup-%d", rep)))
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(e.bins.dogmatixd, s.daemonArgs(w, filepath.Join(s.dir, "store"))...)
		if err != nil {
			return nil, err
		}
		ph.setup = append(ph.setup, (gen + d.boot).Seconds())
		st = s
		if rep < setupReps-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
			continue
		}
		main = d
	}
	defer main.kill()
	if err := e.servePhase(ctx, w, st, main, seed, warm, readFor, writeFor, true, ph, chk); err != nil {
		return nil, err
	}

	run := &measure.Run{
		Workload: w.name, Seed: seed, Index: index, Seconds: seconds,
		Scale: w.scale(st.corpus), Windows: ph.windows,
		Metrics:   endToEnd(ph),
		Attempted: chk.attempted, Failed: chk.failed, Correct: chk.failed == 0,
		Failures: chk.reasons,
		WallS:    time.Since(begin).Seconds(),
	}
	return run, nil
}

// batchPhase runs the CLI part: detection processes for batchFor (at
// least minBatchReps), each followed on disk workloads by a
// fresh-process -update against the directory it persisted, every
// output checked against the in-process reference.
func (e *runEnv) batchPhase(w *workload, st *site, dir string, batchFor time.Duration, ph *phases, chk *checker) error {
	ref, err := newReference(w, st.corpus)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	want, err := ref.render()
	if err != nil {
		return err
	}
	ph.f1 = ref.f1(st.corpus.Gold)

	chain := w.store == storeDisk
	var batch workgen.UpdateBatch
	var wantUpdated rendered
	var doc string
	if chain {
		batch = st.corpus.UpdateBatch(0)
		if doc, err = st.writeBatch(batch); err != nil {
			return err
		}
		updated, err := ref.update(batch)
		if err != nil {
			return fmt.Errorf("reference update: %w", err)
		}
		if wantUpdated, err = updated.render(); err != nil {
			return err
		}
		// On the build → restart → update chain, quality is taken where
		// the chain ends.
		ph.f1 = updated.f1(st.corpus.GoldWithout(batch.RemovedIDs))
	}

	begin := time.Now()
	for rep := 0; rep < minBatchReps || time.Since(begin) < batchFor; rep++ {
		storeDir := filepath.Join(dir, fmt.Sprintf("batch-store-%d", rep))
		p, err := runProcess(e.bins.dogmatix, st.detectArgs(w, storeDir)...)
		if !chk.ok(err) {
			continue
		}
		chk.ok(want.matches(p))
		ph.detect = append(ph.detect, p.wall.Seconds())
		ph.peakRSS, ph.procs = max(ph.peakRSS, p.rssMB), ph.procs+1
		if !chain {
			continue
		}
		u, err := runProcess(e.bins.dogmatix, st.updateArgs(w, storeDir, doc, batch)...)
		if !chk.ok(err) {
			continue
		}
		chk.ok(wantUpdated.matches(u))
		ph.update = append(ph.update, u.wall.Seconds())
		ph.peakRSS, ph.procs = max(ph.peakRSS, u.rssMB), ph.procs+1
		if err := os.RemoveAll(storeDir); err != nil {
			return err
		}
	}
	ph.windows["batch"] = time.Since(begin).Seconds()
	if len(ph.detect) == 0 || (chain && len(ph.update) == 0) {
		return fmt.Errorf("no batch process succeeded: %v", chk.reasons)
	}
	return nil
}

// servePhase drives the main daemon: a read-only window, a write
// window (with a reader beside the writer on mixed workloads), the
// fresh-process `dogmatix submit` updates on workloads without a store
// directory, then SIGTERM and — for a disk daemon — restarts over its
// directory with the durability check. submits is off in the traced
// pass, which has no use for update_s.
func (e *runEnv) servePhase(ctx context.Context, w *workload, st *site, d *daemon, seed int64,
	warm, readFor, writeFor time.Duration, submits bool, ph *phases, chk *checker) error {
	cl := newAPIClient(d.url)
	v, err := newVerifier(ctx, cl)
	if err != nil {
		return err
	}
	sched := workgen.NewSchedule(st.corpus, seed, readClients)

	_, cpuBefore := d.procStatus()
	readers, from, until := readWindow(ctx, d.url, sched, v, readClients, warm, readFor)
	_, cpuAfter := d.procStatus()
	ph.readCPU = cpuAfter - cpuBefore
	ph.readFrom, ph.readUntil = from, until
	ph.windows["read"] = until.Sub(from).Seconds()
	ph.windows["read_warmup"] = warm.Seconds()
	for _, r := range readers {
		ph.reads = append(ph.reads, r.samples...)
		chk.merge(&r.chk)
	}

	storeDir := filepath.Join(st.dir, "store")
	wr := &writer{
		cl:      newAPIClient(d.url),
		subs:    workgen.NewSubmissions(st.corpus, seed, len(st.docs)),
		v:       v,
		durable: w.store == storeDisk,
		live:    st.corpus.Candidates(),
	}
	before := dirBytes(storeDir)
	ph.writeFrom = time.Now()
	ph.writeUntil = ph.writeFrom.Add(writeFor)
	var wg sync.WaitGroup
	var beside *reader
	if w.mixed {
		beside = &reader{cl: newAPIClient(d.url), stream: sched.Client(0), v: v}
		wg.Add(1)
		go func() {
			defer wg.Done()
			beside.run(ctx, ph.writeFrom, ph.writeUntil)
		}()
	}
	wr.run(ctx, ph.writeUntil)
	wg.Wait()
	ph.windows["write"] = writeFor.Seconds()
	ph.acks = wr.samples
	chk.merge(&wr.chk)
	if beside != nil {
		ph.mixedReads = beside.samples
		chk.merge(&beside.chk)
	}
	for _, s := range wr.sent {
		ph.xmlSubmitted += int64(len(s.sub.XML))
	}
	ph.dirDelta = dirBytes(storeDir) - before
	if len(ph.acks) == 0 {
		return fmt.Errorf("no submission was acknowledged in the write window: %v", wr.chk.reasons)
	}

	if ph.metrics, err = cl.Metrics(ctx); err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}

	if w.store != storeDisk && submits {
		if err := e.submitUpdates(st, d, wr, ph, chk); err != nil {
			return err
		}
	}

	ph.daemonRSS, _ = d.procStatus()
	if err := d.stop(); err != nil {
		return err
	}

	if w.store != storeDisk {
		return nil
	}
	// Restart over the directory the daemon persisted into, no
	// documents: what was acknowledged must be there.
	for rep := 0; rep < restartReps; rep++ {
		r, err := startDaemon(e.bins.dogmatixd, st.restartArgs(w, storeDir)...)
		if err != nil {
			return fmt.Errorf("restart over %s: %w", storeDir, err)
		}
		ph.restartMS = append(ph.restartMS, float64(r.boot)/float64(time.Millisecond))
		if rep == restartReps-1 && st.corpus.IDType != "" {
			wr.checkDurable(ctx, newAPIClient(r.url), st.corpus.IDType, chk)
		}
		if err := r.stop(); err != nil {
			return err
		}
	}
	return nil
}

// submitUpdates measures update_s on workloads whose state lives in
// the daemon, not in a store directory: a fresh `dogmatix submit`
// process posts one update batch and exits once the ack arrived.
func (e *runEnv) submitUpdates(st *site, d *daemon, wr *writer, ph *phases, chk *checker) error {
	for rep := 0; rep < minBatchReps; rep++ {
		b := st.corpus.UpdateBatch(rep)
		doc, err := st.writeBatch(b)
		if err != nil {
			return err
		}
		p, err := runProcess(e.bins.dogmatix, submitArgs(d.url, doc, b)...)
		if !chk.ok(err) {
			continue
		}
		wr.live += b.Added - len(b.Remove)
		wr.epoch++
		var ack api.UpdateResponse
		if err := json.Unmarshal(p.stdout, &ack); err != nil {
			chk.ok(fmt.Errorf("dogmatix submit printed no ack: %w", err))
			continue
		}
		switch {
		case ack.Live != wr.live:
			err = fmt.Errorf("dogmatix submit #%d: live=%d, want %d", rep, ack.Live, wr.live)
		case ack.Epoch != wr.epoch:
			err = fmt.Errorf("dogmatix submit #%d: epoch %d, want %d", rep, ack.Epoch, wr.epoch)
		}
		chk.ok(err)
		ph.update = append(ph.update, p.wall.Seconds())
	}
	if len(ph.update) == 0 {
		return fmt.Errorf("no dogmatix submit succeeded: %v", chk.reasons)
	}
	return nil
}

// endToEnd turns the measured phases into the end-to-end metrics.
func endToEnd(ph *phases) map[string]measure.Metric {
	m := map[string]measure.Metric{}
	m["setup_s"] = measure.Metric{Value: measure.Median(ph.setup), Unit: "s", N: len(ph.setup)}
	m["detect_s"] = measure.Metric{Value: measure.Median(ph.detect), Unit: "s", N: len(ph.detect)}
	m["update_s"] = measure.Metric{Value: measure.Median(ph.update), Unit: "s", N: len(ph.update)}
	m["peak_rss_mb"] = measure.Metric{Value: ph.peakRSS, Unit: "MB", N: ph.procs}
	m["f1"] = measure.Metric{Value: ph.f1, Unit: "ratio", N: 1}

	// Every read metric comes from the read-only window. Beside a
	// writer a reader's throughput is a race between its next request
	// and the next update taking the store lock — too unsteady to bound;
	// it is a per-layer figure (api.mixed_read_rps).
	lats := latencies(ph.reads)
	m["read_rps"] = measure.Metric{Value: sliceRate(ph.reads, ph.readFrom, ph.readUntil), Unit: "req/s", N: len(lats)}
	m["read_p50_us"] = measure.Metric{Value: measure.Median(lats), Unit: "us", N: len(lats)}
	m["read_p99_us"] = percentileMetric(lats, 99)

	var ackMS []float64
	last := ph.writeFrom
	for _, a := range ph.acks {
		ackMS = append(ackMS, float64(a.lat)/float64(time.Millisecond))
		if a.done.After(last) {
			last = a.done
		}
	}
	// One closed-loop writer completes few submissions per window, so
	// the window is cut at the last ack: counting whole acks over a
	// fixed length would quantize the rate.
	m["update_docs_per_s"] = measure.Metric{Value: ratePerSecond(len(ph.acks), ph.writeFrom, last), Unit: "docs/s", N: len(ph.acks)}
	m["update_ack_p50_ms"] = measure.Metric{Value: measure.Median(ackMS), Unit: "ms", N: len(ackMS)}
	return m
}

// latencies returns the samples' latencies in microseconds.
func latencies(samples []readSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.lat) / float64(time.Microsecond)
	}
	return out
}

func lastDone(samples []readSample, fallback time.Time) time.Time {
	if len(samples) == 0 {
		return fallback
	}
	last := samples[0].done
	for _, s := range samples {
		if s.done.After(last) {
			last = s.done
		}
	}
	return last
}

// sliceRate is the throughput of a read window: the median, over the
// window's whole rateSlice-long slices, of the requests completed per
// second in the slice.
func sliceRate(samples []readSample, from, until time.Time) float64 {
	slices := int(until.Sub(from) / rateSlice)
	if slices < 1 {
		return ratePerSecond(len(samples), from, until)
	}
	counts := make([]float64, slices)
	for _, s := range samples {
		if i := int(s.done.Sub(from) / rateSlice); i >= 0 && i < slices {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= rateSlice.Seconds()
	}
	return measure.Median(counts)
}

func ratePerSecond(n int, from, until time.Time) float64 {
	if d := until.Sub(from).Seconds(); d > 0 {
		return float64(n) / d
	}
	return 0
}

// percentileMetric reports latency percentile p (of samples in
// microseconds) under the ≥10-beyond rule. A
// sample too small for p still yields its nearest-rank value — the
// driver needs a number — flagged as under-sampled with the highest
// percentile the sample does support.
func percentileMetric(xs []float64, p float64) measure.Metric {
	v, ok := measure.Percentile(xs, p)
	m := measure.Metric{Value: v, Unit: "us", N: len(xs)}
	if !ok {
		if hp, found := measure.HighestSupported(len(xs), 50, 75, 90, 95); found {
			m.Note = fmt.Sprintf("under-sampled: n=%d supports p%.0f at most", len(xs), hp)
		} else {
			m.Note = fmt.Sprintf("under-sampled: n=%d supports no percentile", len(xs))
		}
	}
	return m
}
