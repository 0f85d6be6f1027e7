// cdstore: deduplicating a single dirty catalog (the Dataset 1 scenario).
//
// A FreeDB-like CD catalog is polluted with artificial duplicates (typos,
// missing elements, synonyms), then cleaned with DogmatiX. Because the
// generator knows the ground truth, the example reports recall/precision
// for several description heuristics, reproducing the Sec. 6.2 workflow
// in miniature.
//
//	go run ./examples/cdstore [-n 200]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dirty"
	"repro/internal/evalmetrics"
	"repro/internal/heuristics"
	"repro/internal/xsd"
)

func main() {
	n := flag.Int("n", 200, "catalog size before duplication")
	seed := flag.Int64("seed", 42, "generator seed")
	flag.Parse()

	// Generate the clean catalog and its schema.
	cds := datagen.FreeDB(*n, *seed)
	doc := datagen.FreeDBToXML(cds)
	schema, err := xsd.Infer(doc)
	if err != nil {
		log.Fatal(err)
	}

	// Pollute it: every disc gets a duplicate with 20% typos, 10%
	// missing data, 8% synonyms (the paper's Dataset 1 settings).
	gen, err := dirty.New(dirty.Dataset1Params(), *seed+1, datagen.FreeDBSynonyms())
	if err != nil {
		log.Fatal(err)
	}
	dres, err := gen.DirtyDocument(doc, "/freedb/disc")
	if err != nil {
		log.Fatal(err)
	}
	gold := evalmetrics.PairSet{}
	for _, p := range dres.GoldPairs {
		gold.Add(p[0], p[1])
	}
	fmt.Printf("catalog: %d discs + %d dirty duplicates (%d typos, %d drops, %d synonyms)\n\n",
		*n, len(dres.GoldPairs), dres.Typos, dres.Dropped, dres.Synonyms)

	mapping := core.NewMapping()
	for typ, paths := range datagen.FreeDBMappingPaths() {
		mapping.MustAdd(typ, paths...)
	}

	fmt.Println("heuristic          pairs  recall  precision  F1")
	for _, spec := range []string{"kd:1", "kd:3", "kd:6", "rd:1", "rd:2", "kd:6[csdt,cme]"} {
		h, err := heuristics.ParseSpec(spec)
		if err != nil {
			log.Fatal(err)
		}
		cfg := core.Config{
			Heuristic: h, ThetaTuple: 0.15, ThetaCand: 0.55, UseFilter: true,
		}
		det, err := core.NewDetector(mapping, cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := det.Detect("DISC", core.Source{Doc: doc, Schema: schema})
		if err != nil {
			log.Fatal(err)
		}
		pr := evalmetrics.PairsPR(evalmetrics.NewPairSet(res.PairSet()...), gold)
		fmt.Printf("%-18s %5d  %5.1f%%     %5.1f%%  %.3f\n",
			spec, len(res.Pairs), pr.Recall*100, pr.Precision*100, pr.F1())
	}
}
