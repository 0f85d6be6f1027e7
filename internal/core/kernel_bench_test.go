package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dirty"
	"repro/internal/experiments"
	"repro/internal/heuristics"
	"repro/internal/od"
	"repro/internal/od/odcodec"
)

// BenchmarkDetectKernel is Dataset 1 at the reference benchmark's
// detect_cd_mem shape (500 discs, one dirty duplicate each, kd:6, Step 4
// filter on, MemStore) through the whole in-process pipeline. A CPU
// profile of "score" on a 2-core x86-64 box splits compare ~65 %, the
// Step 4 filter (reduce) ~18 %, describe ~5 %, candidate selection ~4 %
// (positional paths under 1 %) and GC ~7 %, so its ns/op and B/op
// track the Step 4–5 kernel; the traced variant records replay traces
// the way -update and the daemon do, and the disk variant runs the same
// corpus on a fresh DiskStore — what it costs over "score" is the disk
// tier's. The warm variant is a -reuse-index hit: a traced snapshot
// saved once, then one warm start per iteration, which replays the
// persisted bounds and pairs instead of computing them. The two
// ablations run the "score" configuration with one lossless shortcut
// switched off: nofilter without the Step 4 filter, noblocking with
// every surviving pair compared instead of the shared-value blocking.
// This corpus's ARTIST values reach 21 runes, an edit budget of 3, so
// the type runs on the length-windowed scan tier and never builds the
// deletion-neighborhood index; the reference corpus cuts ARTIST to 20
// runes (budget 2) and does, which BenchmarkNeighborIndexBuild in
// internal/strdist measures at that shape.
//
//	go test ./internal/core -run xxx -bench DetectKernel -benchmem
func BenchmarkDetectKernel(b *testing.B) {
	ds, err := experiments.BuildDataset1(500, 2005, dirty.Dataset1Params())
	if err != nil {
		b.Fatal(err)
	}
	h, err := heuristics.Experiment(1, heuristics.KClosestDescendants(6))
	if err != nil {
		b.Fatal(err)
	}
	src := core.Source{Doc: ds.Doc, Schema: ds.Schema}
	for _, name := range []string{"score", "traced", "disk", "warm", "nofilter", "noblocking"} {
		b.Run(name, func(b *testing.B) {
			cfg := core.Config{
				Heuristic:       h,
				ThetaTuple:      experiments.ThetaTuple,
				ThetaCand:       experiments.ThetaCand,
				UseFilter:       name != "nofilter",
				DisableBlocking: name == "noblocking",
				Workers:         1,
				Incremental:     name == "traced" || name == "warm",
			}
			if name == "disk" {
				dir := b.TempDir()
				cfg.NewStore = func() od.Store { return od.NewDiskStore(dir) }
			}
			if name == "warm" {
				dir := b.TempDir()
				cfg.Snapshot = &core.SnapshotOptions{Dir: dir, Save: true}
				det, err := core.NewDetector(ds.Mapping, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := det.Detect("DISC", src); err != nil {
					b.Fatal(err)
				}
				cfg.Snapshot = &core.SnapshotOptions{Dir: dir, Reuse: true, Save: true}
			}
			det, err := core.NewDetector(ds.Mapping, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := det.Detect("DISC", src)
				if err != nil {
					b.Fatal(err)
				}
				if name == "warm" {
					if !res.WarmStart {
						b.Fatal("the snapshot missed")
					}
					res.Store.(*od.DiskStore).Close()
				}
				benchSink = res
			}
		})
	}
}

// BenchmarkUpdateKernel is one single-document POST /v1/updates at the
// same shape: the 500-disc corpus built once, then one Update per
// iteration adding a document of one new disc, with replay traces on
// the way the daemon runs — on MemStore, and on a DiskStore persisting
// into its own directory. Each iteration extends the previous result,
// so the disk row pays its once-per-chain merge at the real cadence.
// Besides ns/op it reports each pipeline stage's milliseconds per
// update (update, reduce, snapshot, compare, cluster, traces).
//
//	go test ./internal/core -run xxx -bench UpdateKernel -benchmem
func BenchmarkUpdateKernel(b *testing.B) {
	ds, err := experiments.BuildDataset1(500, 2005, dirty.Dataset1Params())
	if err != nil {
		b.Fatal(err)
	}
	h, err := heuristics.Experiment(1, heuristics.KClosestDescendants(6))
	if err != nil {
		b.Fatal(err)
	}
	// Discs of another seed: new to the corpus, generated like it.
	posts := datagen.FreeDB(564, 2006)[500:]
	for _, name := range []string{"mem", "disk"} {
		b.Run(name, func(b *testing.B) {
			cfg := core.Config{
				Heuristic:   h,
				ThetaTuple:  experiments.ThetaTuple,
				ThetaCand:   experiments.ThetaCand,
				UseFilter:   true,
				Workers:     1,
				Incremental: true,
			}
			if name == "disk" {
				dir := b.TempDir()
				cfg.NewStore = func() od.Store { return od.NewDiskStore(dir) }
				cfg.Snapshot = &core.SnapshotOptions{Dir: dir, Save: true}
			}
			det, err := core.NewDetector(ds.Mapping, cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := det.Detect("DISC", core.Source{Doc: ds.Doc, Schema: ds.Schema})
			if err != nil {
				b.Fatal(err)
			}
			stages := map[string]time.Duration{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cd := posts[i%len(posts) : i%len(posts)+1]
				post := core.Source{Name: fmt.Sprintf("post-%d", i), Doc: datagen.FreeDBToXML(cd), Schema: ds.Schema}
				if res, err = det.Update(res, core.UpdateBatch{Add: []core.SourceInput{post}}); err != nil {
					b.Fatal(err)
				}
				for _, st := range res.Stages {
					stages[st.Name] += st.Elapsed
				}
			}
			benchSink = res
			for stage, d := range stages {
				b.ReportMetric(float64(d.Microseconds())/1e3/float64(b.N), stage+"-ms/op")
			}
		})
	}
}

// BenchmarkTraceSegment meters the trace segment on the same corpus,
// built on a DiskStore persisting into its own directory with replay
// traces, then extended by one single-document update. Its rows: save
// is a whole write of the updated state (Result.SaveTraces, one frame
// patching the empty state), append the frame that update appends
// (od.AppendTraces against the build's one-frame chain, the file cut
// back to that chain before each iteration, outside the timer), and
// load od.LoadTraces of the resulting two-frame chain. B/op is each
// operation's allocation; trace-B is the file a whole write leaves and
// frame-B the bytes one appended frame adds.
//
//	go test ./internal/core -run xxx -bench TraceSegment -benchmem
func BenchmarkTraceSegment(b *testing.B) {
	ds, err := experiments.BuildDataset1(500, 2005, dirty.Dataset1Params())
	if err != nil {
		b.Fatal(err)
	}
	h, err := heuristics.Experiment(1, heuristics.KClosestDescendants(6))
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	det, err := core.NewDetector(ds.Mapping, core.Config{
		Heuristic:   h,
		ThetaTuple:  experiments.ThetaTuple,
		ThetaCand:   experiments.ThetaCand,
		UseFilter:   true,
		Workers:     1,
		Incremental: true,
		NewStore:    func() od.Store { return od.NewDiskStore(dir) },
		Snapshot:    &core.SnapshotOptions{Dir: dir, Save: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	built, err := det.Detect("DISC", core.Source{Doc: ds.Doc, Schema: ds.Schema})
	if err != nil {
		b.Fatal(err)
	}
	tracePath := filepath.Join(dir, odcodec.TraceFile)
	base, err := os.ReadFile(tracePath)
	if err != nil {
		b.Fatal(err)
	}
	_, chain, err := odcodec.ReadTraceChain(dir)
	if err != nil || chain.Frames != 1 {
		b.Fatalf("the build left a chain of %d frames (err %v), want one", chain.Frames, err)
	}
	post := core.Source{Name: "post", Doc: datagen.FreeDBToXML(datagen.FreeDB(501, 2006)[500:]), Schema: ds.Schema}
	updated, err := det.Update(built, core.UpdateBatch{Add: []core.SourceInput{post}})
	if err != nil {
		b.Fatal(err)
	}
	up := core.TraceUpdateOf(built, updated)
	fileSize := func() float64 {
		st, err := os.Stat(tracePath)
		if err != nil {
			b.Fatal(err)
		}
		return float64(st.Size())
	}

	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := updated.SaveTraces(dir); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(fileSize(), "trace-B")
	})
	b.Run("append", func(b *testing.B) {
		if err := os.WriteFile(tracePath, base, 0o644); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := os.Truncate(tracePath, int64(len(base))); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			c, err := od.AppendTraces(dir, updated.Store, chain.TraceChain, up)
			if err != nil || c.Frames != 2 {
				b.Fatalf("append left %d frames (err %v), want two", c.Frames, err)
			}
		}
		b.ReportMetric(fileSize()-float64(len(base)), "frame-B")
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ts, err := od.LoadTraces(updated.Store)
			if err != nil || ts == nil || ts.Chain.Frames != 2 {
				b.Fatalf("load of the two-frame chain failed: %v", err)
			}
		}
	})
	updated.Store.(*od.DiskStore).Close()
}
