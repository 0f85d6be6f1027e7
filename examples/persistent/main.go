// Persistent indexes: build once, warm-start every run after.
//
// The example generates a dirty CD corpus, writes it to disk, and runs
// duplicate detection twice with an index snapshot directory
// configured. The first run streams the corpus through the pipeline,
// builds the Section 4 value indexes on the disk-backed store and
// leaves them — stamped with a corpus fingerprint — in the snapshot
// directory. The second run (a brand-new detector, as after a process
// restart) presents the same corpus, matches the fingerprint and
// warm-starts: no schema inference, no ingestion, no index build, and
// reduce/compare/cluster replay the persisted traces instead of
// comparing a single pair. The example
// then modifies the corpus and shows the fingerprint forcing a rebuild.
//
//	go run ./examples/persistent
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dirty"
	"repro/internal/heuristics"
)

func main() {
	doc := datagen.FreeDBToXML(datagen.FreeDB(80, 42))
	gen, err := dirty.New(dirty.Dataset1Params(), 43, datagen.FreeDBSynonyms())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := gen.DirtyDocument(doc, "/freedb/disc"); err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "dogmatix-persistent")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cds.xml")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := doc.WriteXML(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	storeDir := filepath.Join(dir, "index")

	mapping := core.NewMapping()
	for typ, paths := range datagen.FreeDBMappingPaths() {
		mapping.MustAdd(typ, paths...)
	}

	// Each call builds a fresh detector, the way a restarted process
	// would: nothing carries over but the snapshot directory.
	detect := func(label string) *core.Result {
		det, err := core.NewDetector(mapping, core.Config{
			Heuristic: heuristics.KClosestDescendants(6),
			UseFilter: true,
			Snapshot:  &core.SnapshotOptions{Dir: storeDir, Reuse: true, Save: true},
			// Save the replay traces with the indexes, so the warm start
			// replays the filter bounds and pair scores, as -reuse-index
			// does.
			Incremental: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := det.DetectInputs("DISC", core.FileSource(path, nil))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: warm-start=%v — %d candidates, %d pairs, %d clusters in %v\n",
			label, res.WarmStart, res.Stats.Candidates,
			res.Stats.PairsDetected, len(res.Clusters), res.Stats.Elapsed)
		for _, st := range res.Stages {
			fmt.Printf("  %-10s items=%-6d %v\n", st.Name, st.Items, st.Elapsed)
		}
		return res
	}

	cold := detect("first run  (build + save)")
	fmt.Println()
	warm := detect("second run (reuse)")
	if !warm.WarmStart {
		log.Fatal("second run was expected to warm-start")
	}

	// Persisted indexes must change nothing observable.
	same := len(cold.Pairs) == len(warm.Pairs) && len(cold.Clusters) == len(warm.Clusters)
	for i := 0; same && i < len(cold.Pairs); i++ {
		same = cold.Pairs[i] == warm.Pairs[i]
	}
	if !same {
		log.Fatal("warm-start result diverges from the fresh build")
	}
	fmt.Printf("\nwarm start reproduced all %d pairs bit-identically\n\n", len(warm.Pairs))

	// Touch the corpus: the fingerprint must refuse the stale snapshot.
	g, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := g.WriteString("<!-- one more byte changes everything -->\n"); err != nil {
		log.Fatal(err)
	}
	if err := g.Close(); err != nil {
		log.Fatal(err)
	}
	changed := detect("third run  (corpus changed)")
	if changed.WarmStart {
		log.Fatal("stale snapshot was served for a changed corpus")
	}
	fmt.Println("\nchanged corpus missed the fingerprint and rebuilt — never stale")
}
