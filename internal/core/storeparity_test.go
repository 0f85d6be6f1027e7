package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dirty"
	"repro/internal/heuristics"
	"repro/internal/od"
	"repro/internal/xmltree"
	"repro/internal/xsd"
)

// detectFingerprint reduces a detection result to everything observable:
// pairs with scores, the possible class, pruning decisions, filter values,
// clusters and comparison counts.
func detectFingerprint(res *core.Result) string {
	return fmt.Sprintf("pairs=%v possible=%v pruned=%v filter=%v clusters=%v compared=%d",
		res.Pairs, res.PossiblePairs, res.Pruned, res.FilterValues, res.Clusters, res.Stats.Compared)
}

// dirtyCDSource generates the Dataset 1 style dirty CD catalog.
func dirtyCDSource(t *testing.T, n int, seed int64) (core.Source, *core.Mapping) {
	t.Helper()
	doc := datagen.FreeDBToXML(datagen.FreeDB(n, seed))
	gen, err := dirty.New(dirty.Dataset1Params(), seed+1, datagen.FreeDBSynonyms())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.DirtyDocument(doc, "/freedb/disc"); err != nil {
		t.Fatal(err)
	}
	schema, err := xsd.Infer(doc)
	if err != nil {
		t.Fatal(err)
	}
	mapping := core.NewMapping()
	for typ, paths := range datagen.FreeDBMappingPaths() {
		mapping.MustAdd(typ, paths...)
	}
	return core.Source{Name: "freedb", Doc: doc, Schema: schema}, mapping
}

// movieSources generates the Dataset 2 style two-source movie corpus.
func movieSources(t *testing.T, n int, seed int64) ([]core.Source, *core.Mapping) {
	t.Helper()
	movies := datagen.Movies(n, seed)
	mapping := core.NewMapping()
	for typ, paths := range datagen.Dataset2MappingPaths() {
		mapping.MustAdd(typ, paths...)
	}
	mapping.MustMarkComposite(datagen.Dataset2CompositePaths()...)
	return []core.Source{
		{Name: "imdb", Doc: datagen.IMDBToXML(movies)},
		{Name: "filmdienst", Doc: datagen.FilmDienstToXML(movies)},
	}, mapping
}

// TestDetectStoreParity runs the full pipeline on the generated CD and
// movie datasets with every store backend and asserts identical
// output.
func TestDetectStoreParity(t *testing.T) {
	cdSource, cdMapping := dirtyCDSource(t, 60, 2005)
	movieSrcs, movieMapping := movieSources(t, 60, 7)

	cases := []struct {
		name     string
		mapping  *core.Mapping
		typeName string
		sources  []core.Source
		cfg      core.Config
	}{
		{
			name: "cds", mapping: cdMapping, typeName: "DISC",
			sources: []core.Source{cdSource},
			cfg: core.Config{
				Heuristic:        heuristics.KClosestDescendants(6),
				ThetaTuple:       0.15,
				ThetaCand:        0.55,
				ThetaPossible:    0.30,
				UseFilter:        true,
				KeepFilterValues: true,
			},
		},
		{
			name: "movies", mapping: movieMapping, typeName: "MOVIE",
			sources: movieSrcs,
			cfg: core.Config{
				Heuristic:  heuristics.RDistantDescendants(2),
				ThetaTuple: 0.15,
				ThetaCand:  0.55,
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(newStore func() od.Store) *core.Result {
				cfg := tc.cfg
				cfg.NewStore = newStore
				det, err := core.NewDetector(tc.mapping, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := det.Detect(tc.typeName, tc.sources...)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}

			ref := run(nil) // MemStore
			if _, ok := ref.Store.(*od.MemStore); !ok {
				t.Fatalf("default store is %T, want *od.MemStore", ref.Store)
			}
			if len(ref.Pairs) == 0 {
				t.Fatal("reference run found no pairs; parity would be vacuous")
			}
			want := detectFingerprint(ref)
			res := run(func() od.Store { return od.NewDiskStore(t.TempDir()) })
			if got := detectFingerprint(res); got != want {
				t.Errorf("disk store diverges from MemStore\n got: %s\nwant: %s", got, want)
			}
			// Stats parity modulo the Indexed flag: whether a backend
			// builds a deletion neighborhood is strategy, not output.
			norm := func(sts []od.TypeStats) []od.TypeStats {
				for i := range sts {
					sts[i].Indexed = false
				}
				return sts
			}
			if !reflect.DeepEqual(norm(res.Store.Stats()), norm(ref.Store.Stats())) {
				t.Errorf("disk store stats diverge")
			}
			// Distributed rows: the whole pipeline through a loopback
			// odrpc federation at 1 and 3 partitions.
			for _, nParts := range []int{1, 3} {
				res := run(distStore(nParts))
				if got := detectFingerprint(res); got != want {
					t.Errorf("dist-%d diverges from MemStore\n got: %s\nwant: %s", nParts, got, want)
				}
				if !reflect.DeepEqual(norm(res.Store.Stats()), norm(ref.Store.Stats())) {
					t.Errorf("dist-%d store stats diverge", nParts)
				}
			}
		})
	}
}

// TestPipelineStages asserts Detect reports one StageStats per executed
// stage, in order, with the counts the run's Stats corroborate.
func TestPipelineStages(t *testing.T) {
	doc, err := xmltree.ParseString(`<db>
	  <rec><name>Alpha Beta</name><id>1</id></rec>
	  <rec><name>Alpha Beta</name><id>2</id></rec>
	  <rec><name>Gamma Delta</name><id>3</id></rec>
	</db>`)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMapping().MustAdd("REC", "/db/rec")

	var observed []string
	det, err := core.NewDetector(m, core.Config{
		Heuristic:  heuristics.RDistantDescendants(1),
		ThetaTuple: 0.30,
		ThetaCand:  0.55,
		UseFilter:  true,
		Observer: core.ObserverFunc(func(st core.StageStats) {
			observed = append(observed, st.Name)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Detect("REC", core.Source{Doc: doc})
	if err != nil {
		t.Fatal(err)
	}

	wantOrder := []string{
		core.StageInfer, core.StageCandidates, core.StageDescribe,
		core.StageReduce, core.StageCompare, core.StageCluster,
	}
	if len(res.Stages) != len(wantOrder) {
		t.Fatalf("stages = %+v, want %d entries", res.Stages, len(wantOrder))
	}
	for i, st := range res.Stages {
		if st.Name != wantOrder[i] {
			t.Errorf("stage[%d] = %q, want %q", i, st.Name, wantOrder[i])
		}
		if st.Elapsed < 0 {
			t.Errorf("stage %q has negative elapsed %v", st.Name, st.Elapsed)
		}
	}
	if !reflect.DeepEqual(observed, wantOrder) {
		t.Errorf("observer saw %v, want %v", observed, wantOrder)
	}

	if st, ok := res.StageByName(core.StageCandidates); !ok || st.Items != res.Stats.Candidates {
		t.Errorf("candidates stage items = %+v, want %d", st, res.Stats.Candidates)
	}
	if st, ok := res.StageByName(core.StageCompare); !ok || int64(st.Items) != res.Stats.Compared {
		t.Errorf("compare stage items = %+v, want %d", st, res.Stats.Compared)
	}
	if st, ok := res.StageByName(core.StageCluster); !ok || st.Items != len(res.Clusters) {
		t.Errorf("cluster stage items = %+v, want %d", st, len(res.Clusters))
	}

	// FilterOnly truncates the chain after reduce.
	det2, err := core.NewDetector(m, core.Config{
		Heuristic:  heuristics.RDistantDescendants(1),
		ThetaTuple: 0.30,
		ThetaCand:  0.55,
		FilterOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := det2.Detect("REC", core.Source{Doc: doc})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Stages) != 4 || res2.Stages[len(res2.Stages)-1].Name != core.StageReduce {
		t.Errorf("filter-only stages = %+v, want chain ending at %q", res2.Stages, core.StageReduce)
	}
	if _, ok := res2.StageByName(core.StageCompare); ok {
		t.Error("filter-only run reported a compare stage")
	}
}
