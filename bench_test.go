// Package repro holds the one effectiveness floor of the tier-1 tests:
// DogmatiX's F1 on the paper's Dataset 1 (dirty CDs, 150 discs). The
// micro-benchmarks live beside the code they time (`make bench-kernel`:
// strdist, od, sim, and BenchmarkDetectKernel's pipeline rows with the
// filter and the blocking switched off); cmd/benchfig regenerates the
// paper's tables and figures, and bench/ is the end-to-end reference
// benchmark.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dirty"
	"repro/internal/experiments"
	"repro/internal/heuristics"
)

const benchSeed = 2005

// TestDogmatiXF1OnDataset1 runs DogmatiX on dirty XML, the paper's
// Dataset 1 at 150 discs, and requires a strong F1 against the gold pairs.
func TestDogmatiXF1OnDataset1(t *testing.T) {
	ds, err := experiments.BuildDataset1(150, benchSeed, dirty.Dataset1Params())
	if err != nil {
		t.Fatal(err)
	}
	h, err := heuristics.Experiment(1, heuristics.KClosestDescendants(6))
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(ds.Mapping, core.Config{
		Heuristic:  h,
		ThetaTuple: experiments.ThetaTuple,
		ThetaCand:  experiments.ThetaCand,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Detect("DISC", core.Source{Doc: ds.Doc, Schema: ds.Schema})
	if err != nil {
		t.Fatal(err)
	}
	f1 := func(pairs [][2]int32) float64 {
		detected := map[[2]int32]bool{}
		tp := 0
		for _, p := range pairs {
			if p[0] > p[1] {
				p[0], p[1] = p[1], p[0]
			}
			if detected[p] {
				continue
			}
			detected[p] = true
			if ds.Gold.Has(p[0], p[1]) {
				tp++
			}
		}
		if len(detected) == 0 || len(ds.Gold) == 0 {
			return 0
		}
		prec := float64(tp) / float64(len(detected))
		rec := float64(tp) / float64(len(ds.Gold))
		if prec+rec == 0 {
			return 0
		}
		return 2 * prec * rec / (prec + rec)
	}
	dogmatix := f1(res.PairSet())
	if dogmatix < 0.85 {
		t.Errorf("DogmatiX F1 = %.3f, expected strong result on Dataset 1", dogmatix)
	}
}
