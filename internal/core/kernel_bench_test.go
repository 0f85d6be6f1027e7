package core_test

import (
	"testing"

	"repro/internal/core"
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
// DiskStore — what it costs over "score" is the disk tier's.
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
	for _, name := range []string{"score", "traced", "disk"} {
		b.Run(name, func(b *testing.B) {
			cfg := core.Config{
				Heuristic:   h,
				ThetaTuple:  experiments.ThetaTuple,
				ThetaCand:   experiments.ThetaCand,
				UseFilter:   true,
				Workers:     1,
				Incremental: name == "traced",
			}
			if name == "disk" {
				dir := b.TempDir()
				cfg.NewStore = func() od.Store { return od.NewDiskStore(dir) }
			}
			det, err := core.NewDetector(ds.Mapping, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := det.Detect("DISC", core.Source{Doc: ds.Doc, Schema: ds.Schema})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = res
			}
		})
	}
}
