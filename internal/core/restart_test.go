package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/od"
	"repro/internal/od/odcodec"
)

// This file pins the cross-process replay contract: a snapshot saved
// with Config.Incremental carries a trace segment, and a fresh process
// that reopens it (OpenDiskStore/OpenPartitioned + Adopt) runs its next
// Update with exactly the recomparisons and patches the in-process
// chain would have run — same pairs, same scores, same Compared and
// Patched counts, only Stats.TraceSource flips from "memory" to "disk".

// copyDir clones a flat snapshot directory, so the restart side can
// adopt state S1 while the in-process side keeps mutating the original.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			copyDirInto(t, filepath.Join(src, e.Name()), filepath.Join(dst, e.Name()))
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func copyDirInto(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			copyDirInto(t, filepath.Join(src, e.Name()), filepath.Join(dst, e.Name()))
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// assertReplayMatch cross-checks the restarted update against the
// in-process one: identical canonical results, identical work split.
func assertReplayMatch(t *testing.T, restarted, inproc *core.Result) {
	t.Helper()
	if got, want := canonicalResult(t, restarted), canonicalResult(t, inproc); got != want {
		t.Errorf("restarted update diverges from the in-process chain\n got: %s\nwant: %s", got, want)
	}
	if restarted.Stats.Compared != inproc.Stats.Compared {
		t.Errorf("restarted update recompared %d pairs, in-process chain %d",
			restarted.Stats.Compared, inproc.Stats.Compared)
	}
	if restarted.Stats.Patched != inproc.Stats.Patched {
		t.Errorf("restarted update patched %d pairs, in-process chain %d",
			restarted.Stats.Patched, inproc.Stats.Patched)
	}
	if restarted.Stats.TraceSource != "disk" {
		t.Errorf("restarted update TraceSource = %q, want \"disk\"", restarted.Stats.TraceSource)
	}
	if inproc.Stats.TraceSource != "memory" {
		t.Errorf("in-process update TraceSource = %q, want \"memory\"", inproc.Stats.TraceSource)
	}
}

// requireMapped asserts that the snapshot in dir opens memory-mapped
// under the default access mode on linux, and skips the test on other
// platforms, where the reader may fall back to pread.
func requireMapped(t *testing.T, dir string) {
	t.Helper()
	r, err := odcodec.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mapped := r.MmapActive()
	r.Close()
	switch {
	case mapped:
	case runtime.GOOS == "linux":
		t.Fatal("default access mode did not map the segments on linux")
	default:
		t.Skip("memory mapping unavailable on this platform")
	}
}

// TestRestartReplayEquivalence: initial load + one in-process update
// persist a snapshot with traces; a second process image reopens it,
// adopts the traces, and applies the second update (with removals)
// exactly like the chain that never restarted — across the identity
// (DiskStore in its own directory) and export-compaction (MemStore)
// save paths, and under both access modes: forced pread, and the
// default held to the memory-mapped path on linux.
func TestRestartReplayEquivalence(t *testing.T) {
	type backend struct {
		name     string
		newStore func(t *testing.T, dir string) func() od.Store
		open     od.DiskOptions
		mapped   bool // the default mode must map on linux; skipped elsewhere
	}
	backends := []backend{
		{name: "disk-identity", newStore: func(t *testing.T, dir string) func() od.Store {
			return func() od.Store { return od.NewDiskStore(dir) }
		}},
		{name: "mem-export", newStore: func(t *testing.T, dir string) func() od.Store { return nil }},
		{name: "disk-mmap-off", newStore: func(t *testing.T, dir string) func() od.Store {
			return func() od.Store { return od.NewDiskStore(dir) }
		}, open: od.DiskOptions{Mmap: odcodec.MmapOff}},
		{name: "disk-mmap-on", newStore: func(t *testing.T, dir string) func() od.Store {
			return func() od.Store { return od.NewDiskStore(dir) }
		}, mapped: true},
	}
	for _, sc := range updateScenarios(t) {
		for _, be := range backends {
			t.Run(fmt.Sprintf("%s/%s", sc.name, be.name), func(t *testing.T) {
				dirA := t.TempDir()
				cfg := sc.cfg
				cfg.NewStore = be.newStore(t, dirA)
				cfg.Incremental = true
				cfg.Snapshot = &core.SnapshotOptions{Dir: dirA, Save: true}
				det, err := core.NewDetector(sc.mapping, cfg)
				if err != nil {
					t.Fatal(err)
				}

				src := 0
				inputsFor := func(corpora [][]byte) []core.SourceInput {
					var names []string
					for range corpora {
						names = append(names, sc.names(src))
						src++
					}
					return docInputs(t, names, corpora)
				}
				res, err := det.DetectInputs(sc.typeName, inputsFor(sc.initial)...)
				if err != nil {
					t.Fatal(err)
				}
				res1, err := det.Update(res, core.UpdateBatch{Add: inputsFor(sc.batch1)})
				if err != nil {
					t.Fatal(err)
				}
				batch2Src := src

				// Freeze state S1 for the restart side before the
				// in-process chain mutates dirA.
				dirB := copyDir(t, dirA)

				removalsFor := func(res *core.Result) []int32 {
					var remove []int32
					for srcIdx, k := range sc.remove2 {
						remove = append(remove, trailingIDs(t, res, srcIdx, k)...)
					}
					sort.Slice(remove, func(i, j int) bool { return remove[i] < remove[j] })
					return remove
				}
				batch2For := func(t *testing.T) []core.SourceInput {
					var names []string
					for i := range sc.batch2 {
						names = append(names, sc.names(batch2Src+i))
					}
					return docInputs(t, names, sc.batch2)
				}

				// Restart side: reopen S1, adopt, update.
				if be.mapped {
					requireMapped(t, dirB)
				}
				store, err := od.OpenDiskStoreWith(dirB, be.open)
				if err != nil {
					t.Fatal(err)
				}
				adopted, err := core.Adopt(sc.typeName, store)
				if err != nil {
					t.Fatal(err)
				}
				if st, ok := adopted.StageByName(core.StageAdopt); !ok || st.Items == 0 {
					t.Fatalf("Adopt restored no traces (stage %+v, found %v)", st, ok)
				}
				cfgB := cfg
				cfgB.NewStore = nil
				cfgB.Snapshot = &core.SnapshotOptions{Dir: dirB, Save: true}
				detB, err := core.NewDetector(sc.mapping, cfgB)
				if err != nil {
					t.Fatal(err)
				}
				restarted, err := detB.Update(adopted, core.UpdateBatch{
					Add: batch2For(t), Remove: removalsFor(adopted),
				})
				if err != nil {
					t.Fatal(err)
				}

				// In-process side: the chain that never restarted.
				inproc, err := det.Update(res1, core.UpdateBatch{
					Add: batch2For(t), Remove: removalsFor(res1),
				})
				if err != nil {
					t.Fatal(err)
				}

				assertReplayMatch(t, restarted, inproc)
				if sc.expectPatching && restarted.Stats.Patched == 0 {
					t.Error("restarted update patched no pairs; replay never happened")
				}

				// The restarted update re-persisted snapshot + traces: a
				// second restart must adopt them again.
				store2, err := od.OpenDiskStoreWith(dirB, be.open)
				if err != nil {
					t.Fatal(err)
				}
				defer store2.Close()
				adopted2, err := core.Adopt(sc.typeName, store2)
				if err != nil {
					t.Fatal(err)
				}
				if st, ok := adopted2.StageByName(core.StageAdopt); !ok || st.Items == 0 {
					t.Fatalf("second restart restored no traces (stage %+v, found %v)", st, ok)
				}
			})
		}
	}
}

// TestUpdateAppendsTraceDeltas pins the append-friendly trace segment
// at the pipeline level: successive small disk-identity updates append
// one delta frame each instead of rewriting the segment, and a restart
// that adopts the multi-frame chain updates exactly like the in-process
// chain — the accumulated deltas are indistinguishable from a whole
// rewrite.
func TestUpdateAppendsTraceDeltas(t *testing.T) {
	sc := updateScenarios(t)[0] // CD corpus
	dir := t.TempDir()
	cfg := sc.cfg
	cfg.NewStore = func() od.Store { return od.NewDiskStore(dir) }
	cfg.Incremental = true
	cfg.Snapshot = &core.SnapshotOptions{Dir: dir, Save: true}
	det, err := core.NewDetector(sc.mapping, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := func(d string) int {
		t.Helper()
		_, info, err := odcodec.ReadTraceChain(d)
		if err != nil {
			t.Fatal(err)
		}
		return info.Frames
	}

	cds := datagen.FreeDB(40, 515)
	initial := xmlBytes(t, datagen.FreeDBToXML(append(append([]datagen.CD(nil), cds[:30]...), cds[3])))
	res, err := det.DetectInputs(sc.typeName, docInputs(t, []string{"seed"}, [][]byte{initial})...)
	if err != nil {
		t.Fatal(err)
	}
	if got := frames(dir); got != 1 {
		t.Fatalf("fresh detection wrote %d trace frames, want 1", got)
	}

	// Three one-CD update batches (each a duplicate of an existing disc,
	// so replay actually patches): each must append one delta frame.
	for n := 0; n < 3; n++ {
		batch := xmlBytes(t, datagen.FreeDBToXML([]datagen.CD{cds[30+n], cds[n]}))
		res, err = det.Update(res, core.UpdateBatch{
			Add: docInputs(t, []string{fmt.Sprintf("inc-%d", n)}, [][]byte{batch}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := frames(dir); got != n+2 {
			t.Fatalf("after update %d the trace chain has %d frames, want %d", n, got, n+2)
		}
	}

	// Restart over the three-delta chain.
	dirB := copyDir(t, dir)
	store, err := od.OpenDiskStore(dirB)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	adopted, err := core.Adopt(sc.typeName, store)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := adopted.StageByName(core.StageAdopt); !ok || st.Items == 0 {
		t.Fatalf("Adopt restored no traces from the chained segment (stage %+v, found %v)", st, ok)
	}
	cfgB := cfg
	cfgB.NewStore = nil
	cfgB.Snapshot = &core.SnapshotOptions{Dir: dirB, Save: true}
	detB, err := core.NewDetector(sc.mapping, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	final := xmlBytes(t, datagen.FreeDBToXML([]datagen.CD{cds[33], cds[10]}))
	finalBatch := func() core.UpdateBatch {
		return core.UpdateBatch{Add: docInputs(t, []string{"inc-final"}, [][]byte{final})}
	}
	restarted, err := detB.Update(adopted, finalBatch())
	if err != nil {
		t.Fatal(err)
	}
	inproc, err := det.Update(res, finalBatch())
	if err != nil {
		t.Fatal(err)
	}
	assertReplayMatch(t, restarted, inproc)
	if restarted.Stats.Patched == 0 {
		t.Error("restarted update patched no pairs; the chained traces never replayed")
	}
}

// TestRestartReplayPartitioned pins the distributed path: a federation
// persisted via od.SavePartitioned plus Result.SaveTraces restores its
// coordinator-level traces through OpenPartitioned + Adopt, and the
// restarted update matches the in-process chain bit-identically.
func TestRestartReplayPartitioned(t *testing.T) {
	sc := updateScenarios(t)[0]
	cfg := sc.cfg
	cfg.NewStore = distStore(3)
	cfg.Incremental = true
	det, err := core.NewDetector(sc.mapping, cfg)
	if err != nil {
		t.Fatal(err)
	}

	res, err := det.DetectInputs(sc.typeName, docInputs(t, []string{sc.names(0)}, sc.initial)...)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := det.Update(res, core.UpdateBatch{Add: docInputs(t, []string{sc.names(1)}, sc.batch1)})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ps := res1.Store.(*od.PartitionedStore)
	if err := od.SavePartitioned(dir, ps, od.SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	if err := res1.SaveTraces(dir); err != nil {
		t.Fatal(err)
	}

	fed, err := od.OpenPartitioned(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	adopted, err := core.Adopt(sc.typeName, fed)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := adopted.StageByName(core.StageAdopt); !ok || st.Items == 0 {
		t.Fatalf("Adopt restored no coordinator traces (stage %+v, found %v)", st, ok)
	}

	batch2 := func() []core.SourceInput { return docInputs(t, []string{sc.names(2)}, sc.batch2) }
	restarted, err := det.Update(adopted, core.UpdateBatch{
		Add: batch2(), Remove: trailingIDs(t, adopted, 0, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	inproc, err := det.Update(res1, core.UpdateBatch{
		Add: batch2(), Remove: trailingIDs(t, res1, 0, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertReplayMatch(t, restarted, inproc)
}

// TestRestartCorruptTraceFallsBack: a flipped byte in the trace segment
// must not poison anything — Adopt reports zero restored traces, the
// next update recompares everything, and the answer still matches the
// in-process chain.
func TestRestartCorruptTraceFallsBack(t *testing.T) {
	sc := updateScenarios(t)[0]
	dirA := t.TempDir()
	cfg := sc.cfg
	cfg.NewStore = func() od.Store { return od.NewDiskStore(dirA) }
	cfg.Incremental = true
	cfg.Snapshot = &core.SnapshotOptions{Dir: dirA, Save: true}
	det, err := core.NewDetector(sc.mapping, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := det.DetectInputs(sc.typeName, docInputs(t, []string{sc.names(0)}, sc.initial)...)
	if err != nil {
		t.Fatal(err)
	}

	dirB := copyDir(t, dirA)
	path := filepath.Join(dirB, odcodec.TraceFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	store, err := od.OpenDiskStore(dirB)
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := core.Adopt(sc.typeName, store)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := adopted.StageByName(core.StageAdopt); !ok || st.Items != 0 {
		t.Fatalf("corrupt trace segment was adopted (stage %+v)", st)
	}
	cfgB := cfg
	cfgB.Snapshot = &core.SnapshotOptions{Dir: dirB, Save: true}
	detB, err := core.NewDetector(sc.mapping, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	batch1 := func() []core.SourceInput { return docInputs(t, []string{sc.names(1)}, sc.batch1) }
	restarted, err := detB.Update(adopted, core.UpdateBatch{Add: batch1()})
	if err != nil {
		t.Fatal(err)
	}
	if restarted.Stats.TraceSource != "none" {
		t.Fatalf("TraceSource = %q after a corrupt segment, want \"none\"", restarted.Stats.TraceSource)
	}
	inproc, err := det.Update(res1, core.UpdateBatch{Add: batch1()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalResult(t, restarted), canonicalResult(t, inproc); got != want {
		t.Errorf("full-recompare fallback diverges from the traced chain\n got: %s\nwant: %s", got, want)
	}
	if restarted.Stats.Patched != 0 {
		t.Errorf("fallback update patched %d pairs with no traces", restarted.Stats.Patched)
	}
}
