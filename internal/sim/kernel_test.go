package sim_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dirty"
	"repro/internal/experiments"
	"repro/internal/heuristics"
	"repro/internal/od"
	"repro/internal/sim"
)

// corpus builds Dataset 1 (n discs, one dirty duplicate each) up to and
// including Step 4 and returns the finalized MemStore with a sample of
// blocked pairs: every object's first few neighbors. k is the
// description size — 6 keeps most comparable groups at one tuple a side,
// 14 reaches into the track lists and makes them n×m.
func corpus(tb testing.TB, n, k int) (od.Store, [][2]*od.OD) {
	return corpusOn(tb, n, k, nil)
}

// corpusOn is corpus on the backend newStore builds (nil: MemStore).
func corpusOn(tb testing.TB, n, k int, newStore func() od.Store) (od.Store, [][2]*od.OD) {
	tb.Helper()
	ds, err := experiments.BuildDataset1(n, 2005, dirty.Dataset1Params())
	if err != nil {
		tb.Fatal(err)
	}
	h, err := heuristics.Experiment(1, heuristics.KClosestDescendants(k))
	if err != nil {
		tb.Fatal(err)
	}
	det, err := core.NewDetector(ds.Mapping, core.Config{
		Heuristic:  h,
		ThetaTuple: experiments.ThetaTuple,
		ThetaCand:  experiments.ThetaCand,
		FilterOnly: true,
		NewStore:   newStore,
	})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := det.Detect("DISC", core.Source{Doc: ds.Doc, Schema: ds.Schema})
	if err != nil {
		tb.Fatal(err)
	}
	store := res.Store
	var pairs [][2]*od.OD
	for id := int32(0); id < int32(store.Size()); id++ {
		for i, nb := range store.Neighbors(id) {
			if i == 4 {
				break
			}
			pairs = append(pairs, [2]*od.OD{store.OD(id), store.OD(nb)})
		}
	}
	if len(pairs) == 0 {
		tb.Fatal("corpus has no blocked pairs")
	}
	return store, pairs
}

// The score-only path (Score) and the traced one
// (ScoreTrace) must produce Similarity's score bit for bit, in either
// argument order: the pipeline runs those two, explain output and
// FilterExact the breakdown, and replayed traces must reproduce what was
// scored.
func TestScorePathsBitIdentical(t *testing.T) {
	for _, k := range []int{6, 14} {
		store, pairs := corpus(t, 60, k)
		theta := store.Theta()
		post := sim.NewPostings(store, store.Size())
		var tr sim.PairTrace
		matched := 0
		for _, p := range pairs {
			for _, ab := range [][2]*od.OD{{p[0], p[1]}, {p[1], p[0]}} {
				a, b := ab[0], ab[1]
				want := sim.Similarity(store, a, b, theta)
				matched += len(want.Similar)
				res, fullTrace := sim.SimilarityTrace(store, a, b, theta)
				traced := sim.ScoreTrace(post, a, b, theta, &tr)
				for name, got := range map[string]float64{
					"Score":             sim.Score(post, a, b, theta),
					"ScoreTrace":        traced,
					"SimilarityTrace":   res.Score,
					"ReplayScore":       sim.ReplayScore(store.Size(), tr),
					"ReplayScore(full)": sim.ReplayScore(store.Size(), fullTrace),
				} {
					if math.Float64bits(got) != math.Float64bits(want.Score) {
						t.Fatalf("k=%d %s(%d,%d) = %v, Similarity().Score = %v", k, name, a.ID, b.ID, got, want.Score)
					}
				}
				if len(tr.SimU) != len(want.Similar) || len(tr.ConU) != len(want.Contradictory) {
					t.Fatalf("k=%d trace of (%d,%d) has %d+%d unions for %d+%d matches", k, a.ID, b.ID,
						len(tr.SimU), len(tr.ConU), len(want.Similar), len(want.Contradictory))
				}
			}
		}
		if matched == 0 {
			t.Fatalf("k=%d: no similar match in %d pairs; the test compares nothing", k, len(pairs))
		}
	}
}

// One scored pair and one filter bound on a warm store must not touch
// the heap: the pipeline calls them tens of thousands of times a run —
// on a DiskStore too, where warm means every answer sits in the store's
// caches. Under the race detector sync.Pool drops items at random, so
// the borrowed kernel is not always the warm one.
func TestKernelAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under -race")
	}
	diskDir := t.TempDir()
	for _, bc := range []struct {
		k        int
		newStore func() od.Store
	}{{6, nil}, {14, nil}, {6, func() od.Store { return od.NewDiskStore(diskDir) }}} {
		k := bc.k
		store, pairs := corpusOn(t, 40, k, bc.newStore)
		theta := store.Theta()
		post := sim.NewPostings(store, store.Size())
		var tr sim.PairTrace
		score := func() {
			for _, p := range pairs {
				sim.Score(post, p[0], p[1], theta)
				sim.ScoreTrace(post, p[0], p[1], theta, &tr)
			}
		}
		filter := func() {
			for id := int32(0); id < int32(store.Size()); id++ {
				sim.Filter(store, store.OD(id))
			}
		}
		score() // warm-up: buffers grow to the largest group, the posting rows and the store's cache fill
		filter()
		if n := testing.AllocsPerRun(5, score); n != 0 {
			t.Errorf("k=%d on %T: scoring %d pairs allocates %v times", k, store, len(pairs), n)
		}
		if n := testing.AllocsPerRun(5, filter); n != 0 {
			t.Errorf("k=%d on %T: %d filter bounds allocate %v times", k, store, store.Size(), n)
		}
	}
}

var scoreSink float64

func BenchmarkKernelScore(b *testing.B) {
	for _, bc := range []struct {
		name string
		k    int
	}{{"kd6", 6}, {"kd14", 14}} {
		store, pairs := corpus(b, 250, bc.k)
		theta := store.Theta()
		post := sim.NewPostings(store, store.Size())
		var tr sim.PairTrace
		b.Run(bc.name+"/score", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				scoreSink = sim.Score(post, p[0], p[1], theta)
			}
		})
		b.Run(bc.name+"/traced", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				scoreSink = sim.ScoreTrace(post, p[0], p[1], theta, &tr)
			}
		})
		b.Run(bc.name+"/similarity", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				scoreSink = sim.Similarity(store, p[0], p[1], theta).Score
			}
		})
	}
}

func BenchmarkKernelFilter(b *testing.B) {
	store, _ := corpus(b, 250, 6)
	n := int32(store.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scoreSink = sim.Filter(store, store.OD(int32(i)%n))
	}
}
