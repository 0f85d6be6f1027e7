// Package repro benchmarks every artifact of the paper's evaluation —
// one benchmark per table and figure — plus the ablations DESIGN.md calls
// out (object filter on/off, shared-value blocking on/off, bounded vs full
// edit distance, DogmatiX vs the Section 7 baselines).
//
// Benchmark corpora are scaled down from the paper's 500/10,000 objects
// so a full -bench=. run stays in the minutes; cmd/benchfig regenerates
// the figures at paper scale.
package repro

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dirty"
	"repro/internal/experiments"
	"repro/internal/heuristics"
	"repro/internal/sim"
	"repro/internal/strdist"
)

const benchSeed = 2005

// ----- Tables -----

func BenchmarkTab4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Tab4(); len(rows) != 8 {
			b.Fatal("bad tab4")
		}
	}
}

func BenchmarkTab5Selection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Tab5(benchSeed)
		if err != nil || len(rows) != 8 {
			b.Fatalf("tab5: %v (%d rows)", err, len(rows))
		}
	}
}

func BenchmarkTab6Selection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Tab6(benchSeed)
		if err != nil || len(rows) == 0 {
			b.Fatalf("tab6: %v", err)
		}
	}
}

// ----- Figures -----

// BenchmarkFig5 runs one full recall/precision sweep cell grid (8
// experiments × 8 k values) on a reduced Dataset 1.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Fig5(60, benchSeed, 8)
		if err != nil || len(cells) != 64 {
			b.Fatalf("fig5: %v", err)
		}
	}
}

// BenchmarkFig6 runs the Dataset 2 grid (8 experiments × 4 radii).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Fig6(60, benchSeed, 4)
		if err != nil || len(cells) != 32 {
			b.Fatalf("fig6: %v", err)
		}
	}
}

// BenchmarkFig7 runs the Dataset 3 threshold sweep on a reduced corpus.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig7(600, benchSeed, nil)
		if err != nil || len(points) != 10 {
			b.Fatalf("fig7: %v", err)
		}
	}
}

// BenchmarkFig8 runs the filter-effectiveness sweep over all duplicate
// percentages.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig8(100, benchSeed, nil)
		if err != nil || len(points) != 10 {
			b.Fatalf("fig8: %v", err)
		}
	}
}

// ----- Pipeline ablations -----

func benchDataset1(b *testing.B, n int) *experiments.Dataset1 {
	b.Helper()
	ds, err := experiments.BuildDataset1(n, benchSeed, dirty.Dataset1Params())
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func benchDetect(b *testing.B, ds *experiments.Dataset1, cfg core.Config) *core.Result {
	b.Helper()
	if cfg.Heuristic == nil {
		h, err := heuristics.Experiment(1, heuristics.KClosestDescendants(6))
		if err != nil {
			b.Fatal(err)
		}
		cfg.Heuristic = h
	}
	cfg.ThetaTuple = experiments.ThetaTuple
	cfg.ThetaCand = experiments.ThetaCand
	det, err := core.NewDetector(ds.Mapping, cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := det.Detect("DISC", core.Source{Doc: ds.Doc, Schema: ds.Schema})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkDetect is the end-to-end pipeline with default settings
// (blocking on, filter off), the Fig. 5 configuration.
func BenchmarkDetect(b *testing.B) {
	ds := benchDataset1(b, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDetect(b, ds, core.Config{})
	}
}

// BenchmarkDetectWithFilter measures the Step 4 object filter's effect on
// end-to-end cost (compare against BenchmarkDetect).
func BenchmarkDetectWithFilter(b *testing.B) {
	ds := benchDataset1(b, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDetect(b, ds, core.Config{UseFilter: true})
	}
}

// BenchmarkDetectNoBlocking disables the shared-value blocking, falling
// back to all surviving pairs (compare against BenchmarkDetect).
func BenchmarkDetectNoBlocking(b *testing.B) {
	ds := benchDataset1(b, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDetect(b, ds, core.Config{DisableBlocking: true})
	}
}

// ----- Similarity measure micro-benchmarks -----

func BenchmarkSimilarityPair(b *testing.B) {
	ds := benchDataset1(b, 150)
	res := benchDetect(b, ds, core.Config{FilterOnly: true})
	store := res.Store
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Similarity(store, store.ODs()[0], store.ODs()[1], experiments.ThetaTuple)
	}
}

func BenchmarkObjectFilter(b *testing.B) {
	ds := benchDataset1(b, 150)
	res := benchDetect(b, ds, core.Config{FilterOnly: true})
	store := res.Store
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Filter(store, store.ODs()[i%store.Size()])
	}
}

// ----- Edit distance ablation (the [18] bounds) -----

func BenchmarkEditDistanceFull(b *testing.B) {
	a, c := "The Matrix Reloaded Special Edition", "A Completely Different Disc Title!"
	for i := 0; i < b.N; i++ {
		strdist.Levenshtein(a, c)
	}
}

func BenchmarkEditDistanceBounded(b *testing.B) {
	a, c := "The Matrix Reloaded Special Edition", "A Completely Different Disc Title!"
	for i := 0; i < b.N; i++ {
		strdist.NormalizedBelow(a, c, experiments.ThetaTuple)
	}
}

// ----- Baselines vs DogmatiX on the same store -----

func BenchmarkBaselineSortedNeighborhood(b *testing.B) {
	ds := benchDataset1(b, 150)
	res := benchDetect(b, ds, core.Config{FilterOnly: true})
	det := baseline.SortedNeighborhood{Window: 5, Theta: 0.25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(res.Store)
	}
}

func BenchmarkBaselineContainment(b *testing.B) {
	ds := benchDataset1(b, 150)
	res := benchDetect(b, ds, core.Config{FilterOnly: true})
	det := baseline.Containment{ThetaTuple: experiments.ThetaTuple, ThetaCand: experiments.ThetaCand}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(res.Store)
	}
}

func BenchmarkBaselineNaiveAllPairs(b *testing.B) {
	ds := benchDataset1(b, 150)
	res := benchDetect(b, ds, core.Config{FilterOnly: true})
	det := baseline.NaiveAllPairs{Theta: 0.25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(res.Store)
	}
}

// ----- Effectiveness comparison test (not a benchmark, but the ablation
// DESIGN.md promises: DogmatiX beats the baselines on dirty XML) -----

func TestDogmatiXBeatsBaselines(t *testing.T) {
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
		if len(detected) == 0 || ds.Gold.Len() == 0 {
			return 0
		}
		prec := float64(tp) / float64(len(detected))
		rec := float64(tp) / float64(ds.Gold.Len())
		if prec+rec == 0 {
			return 0
		}
		return 2 * prec * rec / (prec + rec)
	}
	dogmatix := f1(res.PairSet())
	for _, bl := range []baseline.PairDetector{
		baseline.SortedNeighborhood{Window: 5, Theta: 0.25},
		baseline.Containment{ThetaTuple: experiments.ThetaTuple, ThetaCand: experiments.ThetaCand},
		baseline.NaiveAllPairs{Theta: 0.25},
	} {
		got := f1(bl.Detect(res.Store))
		t.Logf("%s F1=%.3f vs DogmatiX F1=%.3f", bl.Name(), got, dogmatix)
		if got > dogmatix {
			t.Errorf("%s F1 %.3f beats DogmatiX %.3f on dirty XML", bl.Name(), got, dogmatix)
		}
	}
	if dogmatix < 0.85 {
		t.Errorf("DogmatiX F1 = %.3f, expected strong result on Dataset 1", dogmatix)
	}
}
