package core_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dirty"
	"repro/internal/experiments"
	"repro/internal/heuristics"
	"repro/internal/od"
)

// BenchmarkDetectKernel is Dataset 1 at the reference benchmark's
// detect_cd_mem shape (500 discs, one dirty duplicate each, kd:6, Step 4
// filter on, MemStore) through the whole in-process pipeline. Reduce and
// compare are ~95 % of it, so its ns/op and B/op track the Step 4–5
// kernel; the traced variant records replay traces the way -update and
// the daemon do, and the disk variant runs the same corpus on a fresh
// DiskStore — what it costs over "score" is the disk tier's. The warm
// variant is a -reuse-index hit: a traced snapshot saved once, then one
// warm start per iteration, which replays the persisted bounds and
// pairs instead of computing them.
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
	for _, name := range []string{"score", "traced", "disk", "warm"} {
		b.Run(name, func(b *testing.B) {
			cfg := core.Config{
				Heuristic:   h,
				ThetaTuple:  experiments.ThetaTuple,
				ThetaCand:   experiments.ThetaCand,
				UseFilter:   true,
				Workers:     1,
				Incremental: name == "traced" || name == "warm",
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
