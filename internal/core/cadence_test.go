package core_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/od"
	"repro/internal/od/odcodec"
)

// This file pins how a DiskStore updating its own directory persists an
// acknowledged batch: the delta segments its AddAfterFinalize and Remove
// fsynced, plus one frame appended to the trace chain; the in-place
// merge runs once per chain. A restart at any point — and a crash in
// either window between the writes — reopens to a state whose next
// update is bit-identical to the chain that never stopped.

// maxTraceFrames mirrors od's bound on the trace chain: the update whose
// frame would make the chain this long merges instead.
const maxTraceFrames = 8

// diskChain is a CD corpus detected on a DiskStore persisting into its
// own directory with replay traces — the way -update and the disk daemon
// run — and updated in process one single-document batch at a time.
type diskChain struct {
	t   *testing.T
	sc  updateScenario
	cfg core.Config
	dir string
	det *core.Detector
	res *core.Result
	cds []datagen.CD
	n   int // batches applied

	initial []byte // the built corpus
}

func newDiskChain(t *testing.T) *diskChain {
	t.Helper()
	c := &diskChain{t: t, sc: updateScenarios(t)[0], dir: t.TempDir(), cds: datagen.FreeDB(48, 515)}
	c.cfg = c.sc.cfg
	c.cfg.NewStore = func() od.Store { return od.NewDiskStore(c.dir) }
	c.cfg.Incremental = true
	c.cfg.Snapshot = &core.SnapshotOptions{Dir: c.dir, Save: true}
	var err error
	if c.det, err = core.NewDetector(c.sc.mapping, c.cfg); err != nil {
		t.Fatal(err)
	}
	c.initial = xmlBytes(t, datagen.FreeDBToXML(append(append([]datagen.CD(nil), c.cds[:30]...), c.cds[3])))
	if c.res, err = c.det.DetectInputs(c.sc.typeName, docInputs(t, []string{"seed"}, [][]byte{c.initial})...); err != nil {
		t.Fatal(err)
	}
	return c
}

// batch is the k-th single-document batch: one new disc plus a
// duplicate of an existing one, so replay patches.
func (c *diskChain) batch(k int) core.UpdateBatch {
	doc := xmlBytes(c.t, datagen.FreeDBToXML([]datagen.CD{c.cds[30+k], c.cds[k]}))
	return core.UpdateBatch{Add: docInputs(c.t, []string{fmt.Sprintf("inc-%d", k)}, [][]byte{doc})}
}

// update applies the next batch in process.
func (c *diskChain) update() {
	c.t.Helper()
	res, err := c.det.Update(c.res, c.batch(c.n))
	if err != nil {
		c.t.Fatal(err)
	}
	c.res = res
	c.n++
}

// restart opens dir the way a fresh process does — replaying any
// unmerged deltas — and adopts it. It returns the adopted result, the
// number of pair traces Adopt restored, and a detector persisting into
// dir.
func (c *diskChain) restart(dir string) (*core.Result, int, *core.Detector) {
	c.t.Helper()
	store, err := od.OpenDiskStore(dir)
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(func() { store.Close() })
	adopted, err := core.Adopt(c.sc.typeName, store)
	if err != nil {
		c.t.Fatal(err)
	}
	st, ok := adopted.StageByName(core.StageAdopt)
	if !ok {
		c.t.Fatal("Adopt recorded no adopt stage")
	}
	cfg := c.cfg
	cfg.NewStore = nil
	cfg.Snapshot = &core.SnapshotOptions{Dir: dir, Save: true}
	det, err := core.NewDetector(c.sc.mapping, cfg)
	if err != nil {
		c.t.Fatal(err)
	}
	return adopted, st.Items, det
}

// replaysLikeInProcess applies the next batch to a restarted store and
// to the in-process chain and requires identical results.
func (c *diskChain) replaysLikeInProcess(adopted *core.Result, det *core.Detector) {
	c.t.Helper()
	restarted, err := det.Update(adopted, c.batch(c.n))
	if err != nil {
		c.t.Fatal(err)
	}
	inproc, err := c.det.Update(c.res, c.batch(c.n))
	if err != nil {
		c.t.Fatal(err)
	}
	if got, want := canonicalResult(c.t, restarted), canonicalResult(c.t, inproc); got != want {
		c.t.Errorf("restarted update diverges from the in-process chain\n got: %s\nwant: %s", got, want)
	}
}

func traceFrames(t *testing.T, dir string) int {
	t.Helper()
	_, info, err := odcodec.ReadTraceChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	return info.Frames
}

func deltaFiles(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "delta-*.odx"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeferredMergeCadence: each single-document update leaves its delta
// segment unmerged, appends one trace frame and leaves the manifest
// untouched, until the update whose frame would make the chain
// maxTraceFrames long merges instead — no delta file left, a one-frame
// chain — and the next update starts the next chain. A restart at every
// point replays the deltas and restores the traces.
func TestDeferredMergeCadence(t *testing.T) {
	c := newDiskChain(t)
	manifestPath := filepath.Join(c.dir, odcodec.ManifestFile)
	manifest := readFile(t, manifestPath)
	restores := func(when string) {
		t.Helper()
		if _, items, _ := c.restart(copyDir(t, c.dir)); items == 0 {
			t.Fatalf("%s: Adopt restored no traces", when)
		}
	}
	restores("after the build")
	for k := 1; k < maxTraceFrames-1; k++ {
		c.update()
		if got := deltaFiles(t, c.dir); got != k {
			t.Fatalf("after update %d the directory holds %d delta files, want %d", k, got, k)
		}
		if got := traceFrames(t, c.dir); got != k+1 {
			t.Fatalf("after update %d the trace chain has %d frames, want %d", k, got, k+1)
		}
		if !bytes.Equal(readFile(t, manifestPath), manifest) {
			t.Fatalf("update %d rewrote the manifest", k)
		}
		restores(fmt.Sprintf("after update %d", k))
	}

	c.update() // its frame would be the chain's maxTraceFrames-th
	if got := deltaFiles(t, c.dir); got != 0 {
		t.Fatalf("the merging update left %d delta files", got)
	}
	if got := traceFrames(t, c.dir); got != 1 {
		t.Fatalf("the merging update left a chain of %d frames, want 1", got)
	}
	if bytes.Equal(readFile(t, manifestPath), manifest) {
		t.Fatal("the merging update left the manifest as it was")
	}
	restores("after the merge")

	c.update()
	if d, f := deltaFiles(t, c.dir), traceFrames(t, c.dir); d != 1 || f != 2 {
		t.Fatalf("the first update of the next chain left %d delta files and %d frames, want 1 and 2", d, f)
	}
	restores("in the next chain")
}

// TestCrashWindowLostTraceFrame: a crash after an update's delta segment
// committed but before its trace frame landed, simulated by truncating
// trace.odx to the previous frame. The reopened store replays the
// delta, the chain describes the sequence before it, so Adopt restores
// nothing, and the next update — a full recompare — is bit-identical
// to the chain that never crashed.
func TestCrashWindowLostTraceFrame(t *testing.T) {
	c := newDiskChain(t)
	c.update()
	before := len(readFile(t, filepath.Join(c.dir, odcodec.TraceFile)))
	c.update()
	crashed := copyDir(t, c.dir)
	if err := os.Truncate(filepath.Join(crashed, odcodec.TraceFile), int64(before)); err != nil {
		t.Fatal(err)
	}
	adopted, items, det := c.restart(crashed)
	if items != 0 {
		t.Fatalf("Adopt restored %d traces from a chain that lost its last frame", items)
	}
	c.replaysLikeInProcess(adopted, det)
}

// TestCrashWindowMergeBeforeTraceRewrite: a crash after the merging
// update committed its manifest but before it rewrote the trace,
// simulated by putting the pre-merge trace.odx back. That chain is
// bound to the old manifest, so Adopt rejects it, and the next update
// is bit-identical to the chain that never crashed.
func TestCrashWindowMergeBeforeTraceRewrite(t *testing.T) {
	c := newDiskChain(t)
	for k := 1; k < maxTraceFrames-1; k++ {
		c.update()
	}
	oldTrace := readFile(t, filepath.Join(c.dir, odcodec.TraceFile))
	c.update()
	if deltaFiles(t, c.dir) != 0 {
		t.Fatal("fixture bug: the update did not merge")
	}
	crashed := copyDir(t, c.dir)
	if err := os.WriteFile(filepath.Join(crashed, odcodec.TraceFile), oldTrace, 0o644); err != nil {
		t.Fatal(err)
	}
	adopted, items, det := c.restart(crashed)
	if items != 0 {
		t.Fatalf("Adopt restored %d traces bound to the manifest before the merge", items)
	}
	c.replaysLikeInProcess(adopted, det)
}

// TestEmptyUpdateExportNeverWarmStarts: a store with an unmerged delta
// whose trace was lost carries only the base manifest's fingerprint. An
// empty update exporting it to another directory must stamp the live
// state with a chained fingerprint, so a fresh run on the base inputs
// misses instead of adopting base plus delta.
func TestEmptyUpdateExportNeverWarmStarts(t *testing.T) {
	c := newDiskChain(t)
	c.update()
	crashed := copyDir(t, c.dir)
	if err := os.Remove(filepath.Join(crashed, odcodec.TraceFile)); err != nil {
		t.Fatal(err)
	}
	adopted, items, _ := c.restart(crashed)
	if items != 0 {
		t.Fatalf("Adopt restored %d traces without a trace file", items)
	}
	export := t.TempDir()
	cfg := c.cfg
	cfg.NewStore = nil
	cfg.Snapshot = &core.SnapshotOptions{Dir: export, Save: true}
	det, err := core.NewDetector(c.sc.mapping, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Update(adopted, core.UpdateBatch{}); err != nil {
		t.Fatal(err)
	}

	cfg.Snapshot = &core.SnapshotOptions{Dir: export, Reuse: true}
	det, err = core.NewDetector(c.sc.mapping, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.DetectInputs(c.sc.typeName, docInputs(t, []string{"seed"}, [][]byte{c.initial})...)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmStart {
		t.Fatal("a fresh run on the base inputs warm-started from the export of base plus delta")
	}
}
