package core_test

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/heuristics"
	"repro/internal/od"
	"repro/internal/xmltree"
)

// trimTrailing returns the corpus bytes with the last k anchor children
// removed from the document root — the "fresh" counterpart of removing
// those candidates incrementally. Trailing removal keeps every surviving
// anchor's positional path unchanged, which is what lets the suite match
// candidates across the two runs by (source, path).
func trimTrailing(t *testing.T, corpus []byte, k int) []byte {
	t.Helper()
	doc, err := xmltree.Parse(bytes.NewReader(corpus))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Root.Children) < k {
		t.Fatalf("cannot trim %d of %d anchors", k, len(doc.Root.Children))
	}
	doc.Root.Children = doc.Root.Children[:len(doc.Root.Children)-k]
	return xmlBytes(t, doc)
}

// trailingIDs returns the candidate IDs of the last k candidates of one
// source, in ascending order.
func trailingIDs(t *testing.T, res *core.Result, source, k int) []int32 {
	t.Helper()
	var ids []int32
	for id, c := range res.Candidates {
		dead := false
		for _, r := range res.Removed {
			if r == int32(id) {
				dead = true
				break
			}
		}
		if !dead && c.Source == source && c.Path != "" {
			ids = append(ids, int32(id))
		}
	}
	if len(ids) < k {
		t.Fatalf("source %d has %d candidates, cannot remove %d", source, len(ids), k)
	}
	return ids[len(ids)-k:]
}

// canonicalResult renders everything the incremental-equivalence
// contract covers, keyed by (source, path) so the two runs' different ID
// spaces cancel out: live candidates, pruned set, filter values, pairs
// and possible pairs with exact scores, and clusters.
func canonicalResult(t *testing.T, res *core.Result) string {
	t.Helper()
	removed := map[int32]bool{}
	for _, id := range res.Removed {
		removed[id] = true
	}
	name := func(id int32) string {
		c := res.Candidates[id]
		return fmt.Sprintf("%d#%s", c.Source, c.Path)
	}
	var live []string
	for id := range res.Candidates {
		if !removed[int32(id)] {
			live = append(live, name(int32(id)))
		}
	}
	sort.Strings(live)

	var pruned []string
	for _, id := range res.Pruned {
		pruned = append(pruned, name(id))
	}
	sort.Strings(pruned)

	var filters []string
	if res.FilterValues != nil {
		for id := range res.Candidates {
			if removed[int32(id)] {
				continue
			}
			v := res.FilterValues[id]
			if math.IsNaN(v) {
				t.Fatalf("live candidate %s has NaN filter value", name(int32(id)))
			}
			filters = append(filters, fmt.Sprintf("%s=%v", name(int32(id)), v))
		}
		sort.Strings(filters)
	}

	pairLine := func(p core.Pair) string {
		a, b := name(p.I), name(p.J)
		if b < a {
			a, b = b, a
		}
		return fmt.Sprintf("%s|%s=%v", a, b, p.Score)
	}
	var pairs, possible []string
	for _, p := range res.Pairs {
		pairs = append(pairs, pairLine(p))
	}
	for _, p := range res.PossiblePairs {
		possible = append(possible, pairLine(p))
	}
	sort.Strings(pairs)
	sort.Strings(possible)

	var clusters []string
	for _, members := range res.Clusters {
		var ms []string
		for _, m := range members {
			ms = append(ms, name(m))
		}
		sort.Strings(ms)
		clusters = append(clusters, strings.Join(ms, ","))
	}
	sort.Strings(clusters)

	return fmt.Sprintf("type=%s\nlive=%v\npruned=%v\nfilters=%v\npairs=%v\npossible=%v\nclusters=%v\ncandidates=%d\n",
		res.Type, live, pruned, filters, pairs, possible, clusters, res.Stats.Candidates)
}

// updateScenario is one dataset's three-step living-corpus script.
type updateScenario struct {
	name     string
	mapping  *core.Mapping
	typeName string
	cfg      core.Config
	initial  [][]byte         // sources of the initial load
	batch1   [][]byte         // sources added by the first update
	batch2   [][]byte         // sources added by the second update
	remove2  map[int]int      // second update: source index -> trailing anchors to remove
	names    func(int) string // source name by global index
	// expectPatching asserts that the traced run compared strictly fewer
	// pairs than the fresh run. Only set where the data allows it: a
	// corpus whose update batches touch low-cardinality values (the CD
	// corpus' YEAR/GENRE) legitimately invalidates almost every pair's
	// softIDF unions, so recomparing them is required for exactness.
	expectPatching bool
}

// updateScenarios builds the CD and movie corpora. Cross-source
// duplicates come from overlapping generator slices, so clusters span
// the initial load and both update batches.
func updateScenarios(t *testing.T) []updateScenario {
	t.Helper()
	cdMapping := core.NewMapping()
	for typ, paths := range datagen.FreeDBMappingPaths() {
		cdMapping.MustAdd(typ, paths...)
	}
	cds := datagen.FreeDB(46, 2030)
	cd0 := append(append([]datagen.CD(nil), cds[:24]...), cds[2], cds[7]) // in-source dups
	cd1 := append(append([]datagen.CD(nil), cds[24:36]...), cds[5], cds[10])
	cd2 := append(append([]datagen.CD(nil), cds[36:46]...), cds[27], cds[1])

	movieMapping := core.NewMapping()
	for typ, paths := range datagen.Dataset2MappingPaths() {
		movieMapping.MustAdd(typ, paths...)
	}
	movieMapping.MustMarkComposite(datagen.Dataset2CompositePaths()...)
	movies := datagen.Movies(30, 9)
	mv2 := append(append([]datagen.Movie(nil), movies[20:]...), movies[0], movies[3])

	return []updateScenario{
		{
			name: "cds", mapping: cdMapping, typeName: "DISC",
			cfg: core.Config{
				Heuristic:        heuristics.KClosestDescendants(6),
				ThetaTuple:       0.15,
				ThetaCand:        0.55,
				ThetaPossible:    0.30,
				UseFilter:        true,
				KeepFilterValues: true,
			},
			initial: [][]byte{xmlBytes(t, datagen.FreeDBToXML(cd0))},
			batch1:  [][]byte{xmlBytes(t, datagen.FreeDBToXML(cd1))},
			batch2:  [][]byte{xmlBytes(t, datagen.FreeDBToXML(cd2))},
			remove2: map[int]int{0: 3, 1: 2},
			names:   func(i int) string { return fmt.Sprintf("freedb-%d", i) },
		},
		{
			name: "movies", mapping: movieMapping, typeName: "MOVIE",
			cfg: core.Config{
				Heuristic:  heuristics.RDistantDescendants(2),
				ThetaTuple: 0.15,
				ThetaCand:  0.55,
			},
			initial:        [][]byte{xmlBytes(t, datagen.IMDBToXML(movies[:20]))},
			batch1:         [][]byte{xmlBytes(t, datagen.FilmDienstToXML(movies[5:15]))},
			batch2:         [][]byte{xmlBytes(t, datagen.IMDBToXML(mv2))},
			remove2:        map[int]int{0: 2, 1: 1},
			names:          func(i int) string { return fmt.Sprintf("movies-%d", i) },
			expectPatching: true,
		},
	}
}

// TestUpdateEquivalence is the incremental-detection acceptance gate:
// splitting each corpus into an initial load plus two Update batches
// (the second including removals) must yield pairs, scores, filter
// values and clusters identical to a single from-scratch run over the
// live corpus after each update — on all three store backends, both
// with replay traces (Config.Incremental) and on the trace-free
// full-recompare fallback. Two more modes run the second update, over
// the first one's traces, with a detector that records none: it must
// patch from the traces it is handed while keeping none of its own,
// also under Config.DisableBlocking, where each recompared object meets
// every survivor.
func TestUpdateEquivalence(t *testing.T) {
	backends := []struct {
		name     string
		newStore func(t *testing.T) func() od.Store
	}{
		{"memstore", func(t *testing.T) func() od.Store { return nil }},
		{"disk", func(t *testing.T) func() od.Store {
			return func() od.Store { return od.NewDiskStore(t.TempDir()) }
		}},
		{"dist-1", func(t *testing.T) func() od.Store { return distStore(1) }},
		{"dist-3", func(t *testing.T) func() od.Store { return distStore(3) }},
	}
	traced := func(c core.Config) core.Config { c.Incremental = true; return c }
	untraced := func(c core.Config) core.Config { return c }
	modes := []struct {
		name string
		// steps derive the configs of the detectors running the initial
		// load and the two updates from the scenario's; the from-scratch
		// reference after an update runs that update's config.
		steps [3]func(core.Config) core.Config
	}{
		{"traced", [3]func(core.Config) core.Config{traced, traced, traced}},
		{"recompare", [3]func(core.Config) core.Config{untraced, untraced, untraced}},
		{"traced-then-untraced", [3]func(core.Config) core.Config{traced, traced, untraced}},
		{"traced-then-noblocking", [3]func(core.Config) core.Config{traced, traced, func(c core.Config) core.Config {
			c.DisableBlocking = true
			return c
		}}},
	}
	for _, sc := range updateScenarios(t) {
		for _, be := range backends {
			for _, mode := range modes {
				t.Run(fmt.Sprintf("%s/%s/%s", sc.name, be.name, mode.name), func(t *testing.T) {
					detector := func(step int) *core.Detector {
						t.Helper()
						cfg := mode.steps[step](sc.cfg)
						cfg.NewStore = be.newStore(t)
						det, err := core.NewDetector(sc.mapping, cfg)
						if err != nil {
							t.Fatal(err)
						}
						return det
					}

					var loaded [][]byte // every source loaded so far
					removed := map[int]int{}
					inputsFor := func(corpora [][]byte) []core.SourceInput {
						var names []string
						for _, corpus := range corpora {
							names = append(names, sc.names(len(loaded)))
							loaded = append(loaded, corpus)
						}
						return docInputs(t, names, corpora)
					}
					// check compares res with a from-scratch run over the
					// live corpus: the loaded sources with the removed
					// trailing anchors physically trimmed.
					check := func(step int, res *core.Result) *core.Result {
						t.Helper()
						var corpora [][]byte
						var names []string
						for i, corpus := range loaded {
							if k := removed[i]; k > 0 {
								corpus = trimTrailing(t, corpus, k)
							}
							corpora = append(corpora, corpus)
							names = append(names, sc.names(i))
						}
						fresh, err := detector(step).DetectInputs(sc.typeName, docInputs(t, names, corpora)...)
						if err != nil {
							t.Fatal(err)
						}
						if len(fresh.Pairs) == 0 || len(fresh.Clusters) == 0 {
							t.Fatal("reference run found no duplicates; equivalence would be vacuous")
						}
						if got, want := canonicalResult(t, res), canonicalResult(t, fresh); got != want {
							t.Errorf("update %d diverges from from-scratch run\n got: %s\nwant: %s", step, got, want)
						}
						return fresh
					}

					// Incremental path: initial load, then two updates.
					res, err := detector(0).DetectInputs(sc.typeName, inputsFor(sc.initial)...)
					if err != nil {
						t.Fatal(err)
					}
					if res, err = detector(1).Update(res, core.UpdateBatch{Add: inputsFor(sc.batch1)}); err != nil {
						t.Fatal(err)
					}
					check(1, res)
					var remove []int32
					for srcIdx, k := range sc.remove2 {
						remove = append(remove, trailingIDs(t, res, srcIdx, k)...)
						removed[srcIdx] = k
					}
					sort.Slice(remove, func(i, j int) bool { return remove[i] < remove[j] })
					if res, err = detector(2).Update(res, core.UpdateBatch{Add: inputsFor(sc.batch2), Remove: remove}); err != nil {
						t.Fatal(err)
					}
					fresh := check(2, res)
					if mode.name != "recompare" && sc.expectPatching && res.Stats.Compared >= fresh.Stats.Compared {
						t.Errorf("update over traces compared %d pairs, fresh run %d — nothing was patched",
							res.Stats.Compared, fresh.Stats.Compared)
					}
				})
			}
		}
	}
}

// TestUpdateAdoptedFromDisk covers the restart workflow behind
// `dogmatix -update`: detect with a persisted disk store, reopen the
// snapshot in a fresh process image, Adopt it, apply an update, and
// match the from-scratch reference.
func TestUpdateAdoptedFromDisk(t *testing.T) {
	sc := updateScenarios(t)[0]
	dir := t.TempDir()

	cfg := sc.cfg
	cfg.NewStore = func() od.Store { return od.NewDiskStore(dir) }
	det, err := core.NewDetector(sc.mapping, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.DetectInputs(sc.typeName, docInputs(t, []string{sc.names(0)}, sc.initial)...); err != nil {
		t.Fatal(err)
	}

	store, err := od.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := core.Adopt(sc.typeName, store)
	if err != nil {
		t.Fatal(err)
	}
	remove := trailingIDs(t, adopted, 0, 2)
	res, err := det.Update(adopted, core.UpdateBatch{
		Add:    docInputs(t, []string{sc.names(1)}, sc.batch1),
		Remove: remove,
	})
	if err != nil {
		t.Fatal(err)
	}

	freshCorpora := [][]byte{trimTrailing(t, sc.initial[0], 2), sc.batch1[0]}
	freshCfg := sc.cfg
	freshDet, err := core.NewDetector(sc.mapping, freshCfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := freshDet.DetectInputs(sc.typeName, docInputs(t, []string{sc.names(0), sc.names(1)}, freshCorpora)...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalResult(t, res), canonicalResult(t, fresh); got != want {
		t.Errorf("adopted update diverges from from-scratch run\n got: %s\nwant: %s", got, want)
	}
}

// TestUpdateValidation pins the Update entry checks.
func TestUpdateValidation(t *testing.T) {
	sc := updateScenarios(t)[0]
	det, err := core.NewDetector(sc.mapping, sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.DetectInputs(sc.typeName, docInputs(t, []string{"a"}, sc.initial)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Update(res, core.UpdateBatch{Remove: []int32{9999}}); err == nil {
		t.Fatal("removing an unknown id succeeded")
	}
	if _, err := det.Update(res, core.UpdateBatch{Remove: []int32{1, 1}}); err == nil {
		t.Fatal("removing an id twice succeeded")
	}
	otherCfg := sc.cfg
	otherCfg.ThetaTuple = 0.25
	otherDet, err := core.NewDetector(sc.mapping, otherCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := otherDet.Update(res, core.UpdateBatch{}); err == nil {
		t.Fatal("θtuple mismatch with the store's indexes went undetected")
	}
}

// TestWarmStartRejectsPendingDeltas pins a crash-safety property: an
// update run that persisted delta segments but died before its merge
// leaves a snapshot whose base fingerprint still matches the original
// corpus. A -reuse-index run over that corpus must treat the directory
// as a miss (the live state diverged), not adopt it.
func TestWarmStartRejectsPendingDeltas(t *testing.T) {
	sc := updateScenarios(t)[0]
	dir := t.TempDir()

	cfg := sc.cfg
	cfg.Snapshot = &core.SnapshotOptions{Dir: dir, Reuse: true, Save: true}
	det, err := core.NewDetector(sc.mapping, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inputs := func() []core.SourceInput { return docInputs(t, []string{"freedb-0"}, sc.initial) }
	if _, err := det.DetectInputs(sc.typeName, inputs()...); err != nil {
		t.Fatal(err)
	}

	// Sanity: the snapshot warm-starts before any mutation.
	warm, err := det.DetectInputs(sc.typeName, inputs()...)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStart {
		t.Fatal("unmutated snapshot did not warm-start")
	}

	// Simulate the crashed update: append a delta, never merge.
	store, err := od.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	extra := &od.OD{Object: "/crashed/disc[1]", Source: 0, Tuples: []od.Tuple{
		{Value: "Pending Delta", Name: "/freedb/disc/dtitle", Type: "DTITLE"},
	}}
	if err := store.AddAfterFinalize([]*od.OD{extra}); err != nil {
		t.Fatal(err)
	}
	store.Close()

	res, err := det.DetectInputs(sc.typeName, inputs()...)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmStart {
		t.Fatal("warm start adopted a snapshot with unmerged delta segments")
	}
}
