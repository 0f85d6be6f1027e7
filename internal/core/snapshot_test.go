package core_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/od"
	"repro/internal/xmltree"
)

// warmFingerprint reduces a Result to everything a warm start promises
// to reproduce: candidate identity (path + source), pruning, filter
// values, pairs with scores, the possible class, clusters, comparison
// counts and the rendered dupcluster XML. Candidate Node/SchemaEl and
// stage timings are excluded — warm-started candidates carry no tree
// or schema by contract, and the stage chain differs by design.
func warmFingerprint(t *testing.T, res *core.Result) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "type=%s\n", res.Type)
	for _, c := range res.Candidates {
		fmt.Fprintf(&sb, "cand src=%d path=%s\n", c.Source, c.Path)
	}
	fmt.Fprintf(&sb, "pruned=%v\nfilter=%v\npairs=%v\npossible=%v\nclusters=%v\n",
		res.Pruned, res.FilterValues, res.Pairs, res.PossiblePairs, res.Clusters)
	fmt.Fprintf(&sb, "stats cand=%d pruned=%d compared=%d pairs=%d\n",
		res.Stats.Candidates, res.Stats.Pruned, res.Stats.Compared, res.Stats.PairsDetected)
	var xml bytes.Buffer
	if err := res.WriteXML(&xml); err != nil {
		t.Fatal(err)
	}
	sb.WriteString(xml.String())
	return sb.String()
}

func stageNames(res *core.Result) []string {
	out := make([]string, len(res.Stages))
	for i, st := range res.Stages {
		out[i] = st.Name
	}
	return out
}

// TestWarmStartEquivalence is the acceptance gate of the persistence
// layer: a fresh build that saves a snapshot, followed by a second
// detector (fresh object, as after a process restart) that reuses it,
// must produce identical detection results on the CD and movie corpora
// — no matter which backend built the snapshot.
func TestWarmStartEquivalence(t *testing.T) {
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

	builders := []struct {
		name     string
		newStore func(t *testing.T) func() od.Store
	}{
		{"memstore", func(t *testing.T) func() od.Store { return nil }},
		{"disk", func(t *testing.T) func() od.Store {
			dir := t.TempDir()
			n := 0
			return func() od.Store {
				n++
				return od.NewDiskStore(filepath.Join(dir, fmt.Sprintf("store%d", n)))
			}
		}},
	}

	for _, tc := range cases {
		for _, be := range builders {
			t.Run(tc.name+"/"+be.name, func(t *testing.T) {
				snapDir := t.TempDir()
				freshCfg := tc.cfg
				freshCfg.NewStore = be.newStore(t)
				freshCfg.Snapshot = &core.SnapshotOptions{Dir: snapDir, Save: true}
				det, err := core.NewDetector(tc.mapping, freshCfg)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := det.Detect(tc.typeName, tc.sources...)
				if err != nil {
					t.Fatal(err)
				}
				if fresh.WarmStart {
					t.Fatal("fresh run claims a warm start")
				}
				if st, ok := fresh.StageByName(core.StageSnapshot); !ok || st.Items != fresh.Stats.Candidates {
					t.Fatalf("snapshot stage = %+v, want %d items", st, fresh.Stats.Candidates)
				}
				if len(fresh.Pairs) == 0 {
					t.Fatal("fresh run found no pairs; equivalence would be vacuous")
				}

				// A brand-new detector, as a restarted process would build.
				warmCfg := tc.cfg
				warmCfg.Snapshot = &core.SnapshotOptions{Dir: snapDir, Reuse: true}
				det2, err := core.NewDetector(tc.mapping, warmCfg)
				if err != nil {
					t.Fatal(err)
				}
				warm, err := det2.Detect(tc.typeName, tc.sources...)
				if err != nil {
					t.Fatal(err)
				}
				if !warm.WarmStart {
					t.Fatalf("reuse run rebuilt instead of warm-starting; stages: %v", stageNames(warm))
				}
				wantStages := []string{core.StageWarmStart, core.StageAdopt, core.StageUpdate,
					core.StageReduce, core.StageCompare, core.StageCluster}
				if !reflect.DeepEqual(stageNames(warm), wantStages) {
					t.Errorf("warm stages = %v, want %v", stageNames(warm), wantStages)
				}
				if _, ok := warm.Store.(*od.DiskStore); !ok {
					t.Errorf("warm store is %T, want *od.DiskStore", warm.Store)
				}
				if got, want := warmFingerprint(t, warm), warmFingerprint(t, fresh); got != want {
					t.Errorf("warm result diverges from fresh build\n got: %.2000s\nwant: %.2000s", got, want)
				}
				for i, c := range warm.Candidates {
					if c.Node != nil || c.SchemaEl != nil {
						t.Fatalf("warm candidate %d retains tree/schema pointers", i)
					}
				}
			})
		}
	}
}

// TestWarmStartStreamAndDocShareSnapshots pins the cross-mode
// fingerprint property: a snapshot saved from a materialized run
// warm-starts a streaming run over the same serialized bytes, and the
// results agree. The shared bytes must be a serialization fixpoint
// (parse→write stable), which one canonicalization round guarantees;
// non-canonical bytes would merely miss and rebuild.
func TestWarmStartStreamAndDocShareSnapshots(t *testing.T) {
	cdSource, cdMapping := dirtyCDSource(t, 40, 2005)
	raw := xmlBytes(t, cdSource.Doc)
	canon, err := xmltree.Parse(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data := xmlBytes(t, canon)
	cfg := core.Config{
		Heuristic:  heuristics.KClosestDescendants(6),
		ThetaTuple: 0.15,
		ThetaCand:  0.55,
		UseFilter:  true,
	}
	snapDir := t.TempDir()
	cfg.Snapshot = &core.SnapshotOptions{Dir: snapDir, Save: true}
	det, err := core.NewDetector(cdMapping, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The doc run ingests the parsed serialization so its digest
	// matches the raw bytes the stream run reads.
	fresh, err := det.DetectInputs("DISC", docInputs(t, []string{"freedb"}, [][]byte{data})...)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Snapshot = &core.SnapshotOptions{Dir: snapDir, Reuse: true}
	det2, err := core.NewDetector(cdMapping, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := det2.DetectInputs("DISC", bytesSource("freedb", data))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStart {
		t.Fatal("stream run over identical bytes missed the doc run's snapshot")
	}
	if got, want := warmFingerprint(t, warm), warmFingerprint(t, fresh); got != want {
		t.Errorf("stream warm start diverges from doc fresh build\n got: %.1500s\nwant: %.1500s", got, want)
	}
}

// TestWarmStartMisses pins the fingerprint sensitivity: any change to
// the corpus, θtuple, heuristic or mapping must miss the snapshot and
// rebuild — silently serving stale indexes would be a correctness bug.
func TestWarmStartMisses(t *testing.T) {
	cdSource, cdMapping := dirtyCDSource(t, 40, 2005)
	base := core.Config{
		Heuristic:  heuristics.KClosestDescendants(6),
		ThetaTuple: 0.15,
		ThetaCand:  0.55,
	}
	snapDir := t.TempDir()
	saveCfg := base
	saveCfg.Snapshot = &core.SnapshotOptions{Dir: snapDir, Save: true}
	det, err := core.NewDetector(cdMapping, saveCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Detect("DISC", cdSource); err != nil {
		t.Fatal(err)
	}

	runReuse := func(t *testing.T, cfg core.Config, mapping *core.Mapping, src core.Source) *core.Result {
		t.Helper()
		cfg.Snapshot = &core.SnapshotOptions{Dir: snapDir, Reuse: true}
		det, err := core.NewDetector(mapping, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := det.Detect("DISC", src)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	t.Run("hit-baseline", func(t *testing.T) {
		if res := runReuse(t, base, cdMapping, cdSource); !res.WarmStart {
			t.Fatal("identical run missed its own snapshot")
		}
	})
	t.Run("theta-tuple-change", func(t *testing.T) {
		cfg := base
		cfg.ThetaTuple = 0.25
		res := runReuse(t, cfg, cdMapping, cdSource)
		if res.WarmStart {
			t.Fatal("θtuple change warm-started stale indexes")
		}
		if st, ok := res.StageByName(core.StageWarmStart); !ok || st.Items != 0 {
			t.Fatalf("miss not recorded as zero-item warmstart stage: %+v", st)
		}
	})
	t.Run("heuristic-change", func(t *testing.T) {
		cfg := base
		cfg.Heuristic = heuristics.RDistantDescendants(2)
		if res := runReuse(t, cfg, cdMapping, cdSource); res.WarmStart {
			t.Fatal("heuristic change warm-started stale indexes")
		}
	})
	t.Run("corpus-change", func(t *testing.T) {
		other, _ := dirtyCDSource(t, 40, 2006)
		if res := runReuse(t, base, cdMapping, other); res.WarmStart {
			t.Fatal("different corpus warm-started stale indexes")
		}
	})
	t.Run("mapping-change", func(t *testing.T) {
		m2 := core.NewMapping()
		m2.MustAdd("DISC", "/freedb/disc")
		if res := runReuse(t, base, m2, cdSource); res.WarmStart {
			t.Fatal("mapping change warm-started stale indexes")
		}
	})
	t.Run("theta-cand-change-still-hits", func(t *testing.T) {
		// θcand shapes classification, not the indexes: it must reuse.
		cfg := base
		cfg.ThetaCand = 0.70
		res := runReuse(t, cfg, cdMapping, cdSource)
		if !res.WarmStart {
			t.Fatal("θcand change missed the snapshot; indexes do not depend on it")
		}
		// And the result must equal a fresh build at that θcand.
		freshCfg := base
		freshCfg.ThetaCand = 0.70
		det, err := core.NewDetector(cdMapping, freshCfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := det.Detect("DISC", cdSource)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := warmFingerprint(t, res), warmFingerprint(t, fresh); got != want {
			t.Errorf("warm θcand=0.70 diverges from fresh θcand=0.70\n got: %.1500s\nwant: %.1500s", got, want)
		}
	})
}

// TestWarmStartReusesPersistedFilterValues pins what a warm start
// takes from a traced snapshot: Adopt restores the trace segment, and
// the zero-batch Update behind the hit replays every Step 4 bound and
// every pair instead of recomputing them — with the fresh run's filter
// values and pruning. A single-document Update of the warm result then
// recomputes only the bounds the batch made dirty: the filter traces
// survive the warm start.
func TestWarmStartReusesPersistedFilterValues(t *testing.T) {
	cdSource, cdMapping := dirtyCDSource(t, 40, 2005)
	cfg := core.Config{
		Heuristic:        heuristics.KClosestDescendants(6),
		ThetaTuple:       0.15,
		ThetaCand:        0.55,
		UseFilter:        true,
		KeepFilterValues: true,
		Incremental:      true,
	}
	snapDir := t.TempDir()
	cfg.Snapshot = &core.SnapshotOptions{Dir: snapDir, Save: true}
	det, err := core.NewDetector(cdMapping, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := det.Detect("DISC", cdSource)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Snapshot = &core.SnapshotOptions{Dir: snapDir, Reuse: true}
	det2, err := core.NewDetector(cdMapping, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := det2.Detect("DISC", cdSource)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStart {
		t.Fatal("reuse run rebuilt")
	}
	if st, ok := warm.StageByName(core.StageAdopt); !ok || st.Items == 0 {
		t.Fatalf("warm start restored no traces (adopt stage %+v, ran %v)", st, ok)
	}
	if warm.Stats.Compared != 0 || warm.Stats.Patched == 0 {
		t.Errorf("warm start compared %d pairs and patched %d, want 0 compared and every traced pair patched",
			warm.Stats.Compared, warm.Stats.Patched)
	}
	if !reflect.DeepEqual(warm.FilterValues, fresh.FilterValues) {
		t.Error("warm filter values diverge")
	}
	if !reflect.DeepEqual(warm.Pruned, fresh.Pruned) {
		t.Error("warm pruning diverges")
	}
	if !reflect.DeepEqual(warm.Pairs, fresh.Pairs) {
		t.Error("warm pairs diverge")
	}

	// One new disc: only bounds of objects holding a value θtuple-similar
	// to one of its values may recompute, besides the new object's own.
	extra, _ := dirtyCDSource(t, 1, 77)
	next, err := det2.Update(warm, core.UpdateBatch{Add: []core.SourceInput{extra}})
	if err != nil {
		t.Fatal(err)
	}
	newFrom := int32(len(warm.Candidates))
	allowed := map[int32]bool{}
	for id := newFrom; id < int32(len(next.Candidates)); id++ {
		allowed[id] = true
		for _, tu := range next.Store.OD(id).Tuples {
			if tu.Value == "" {
				continue
			}
			for _, m := range next.Store.SimilarValues(od.Tuple{Value: tu.Value, Type: tu.Type}) {
				for _, o := range m.Objects {
					allowed[o] = true
				}
			}
		}
	}
	refiltered := core.RefilteredSlots(warm, next)
	for _, id := range refiltered {
		if !allowed[id] {
			t.Errorf("update recomputed the bound of slot %d, outside the batch's dirty set", id)
		}
	}
	if len(refiltered) == 0 || len(allowed) >= next.Stats.Candidates {
		t.Fatalf("vacuous: %d bounds recomputed, %d of %d slots dirty", len(refiltered), len(allowed), next.Stats.Candidates)
	}
}

// TestSnapshotConfigValidation pins the upfront Config checks.
func TestSnapshotConfigValidation(t *testing.T) {
	m := core.NewMapping().MustAdd("T", "/a/b")
	bad := []core.Config{
		{Heuristic: heuristics.KClosestDescendants(6), Snapshot: &core.SnapshotOptions{Reuse: true}},
		{Heuristic: heuristics.KClosestDescendants(6), Snapshot: &core.SnapshotOptions{Dir: "x"}},
	}
	for i, cfg := range bad {
		if _, err := core.NewDetector(m, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg.Snapshot)
		}
	}
	ok := core.Config{Heuristic: heuristics.KClosestDescendants(6), Snapshot: &core.SnapshotOptions{Dir: "x", Save: true}}
	if _, err := core.NewDetector(m, ok); err != nil {
		t.Errorf("valid snapshot config rejected: %v", err)
	}
}
