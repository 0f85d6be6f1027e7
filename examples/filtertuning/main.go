// filtertuning: exploring the object filter (Sec. 5.2) before a large
// cleaning run.
//
// The object filter f(ODi) upper-bounds how similar an object can be to
// any partner; objects with f <= θcand are pruned wholesale in Step 4.
// This example prints the f-value distribution of a dirty catalog and the
// pruning/recall trade-off at several candidate thresholds, the analysis
// behind Fig. 8.
//
//	go run ./examples/filtertuning [-n 200]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dirty"
	"repro/internal/heuristics"
	"repro/internal/xsd"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, args []string) error {
	flags := flag.NewFlagSet("filtertuning", flag.ContinueOnError)
	n := flags.Int("n", 200, "catalog size before duplication")
	seed := flags.Int64("seed", 11, "generator seed")
	if err := flags.Parse(args); err != nil {
		return err
	}

	cds := datagen.FreeDB(*n, *seed)
	doc := datagen.FreeDBToXML(cds)
	schema, err := xsd.Infer(doc)
	if err != nil {
		return err
	}
	gen, err := dirty.New(dirty.Params{
		DuplicatePct: 0.4, TypoPct: 0.2, MissingPct: 0.1, SynonymPct: 0.08,
	}, *seed+1, datagen.FreeDBSynonyms())
	if err != nil {
		return err
	}
	dres, err := gen.DirtyDocument(doc, "/freedb/disc")
	if err != nil {
		return err
	}
	hasDup := make(map[int32]bool)
	for _, p := range dres.GoldPairs {
		hasDup[p[0]] = true
		hasDup[p[1]] = true
	}

	mapping := core.NewMapping()
	for typ, paths := range datagen.FreeDBMappingPaths() {
		mapping.MustAdd(typ, paths...)
	}
	det, err := core.NewDetector(mapping, core.Config{
		Heuristic:        heuristics.KClosestDescendants(6),
		ThetaTuple:       0.15,
		ThetaCand:        0.55,
		FilterOnly:       true,
		KeepFilterValues: true,
	})
	if err != nil {
		return err
	}
	res, err := det.Detect("DISC", core.Source{Doc: doc, Schema: schema})
	if err != nil {
		return err
	}

	fs := res.FilterValues

	sorted := append([]float64(nil), fs...)
	sort.Float64s(sorted)
	fmt.Fprintf(w, "objects: %d (%d with a true duplicate)\n\n", len(fs), len(hasDup))
	fmt.Fprintln(w, "f(OD) distribution:")
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90} {
		fmt.Fprintf(w, "  p%.0f = %.3f\n", q*100, sorted[int(q*float64(len(sorted)))])
	}

	fmt.Fprintln(w, "\nθcand  pruned  objects-with-dup pruned  comparisons left")
	for _, theta := range []float64{0.40, 0.50, 0.55, 0.60, 0.70} {
		pruned, wrong := 0, 0
		for i, f := range fs {
			if f <= theta {
				pruned++
				if hasDup[int32(i)] {
					wrong++
				}
			}
		}
		left := len(fs) - pruned
		fmt.Fprintf(w, "%.2f   %6d  %23d  %10d pairs\n",
			theta, pruned, wrong, left*(left-1)/2)
	}
	fmt.Fprintln(w, "\npick the largest θcand that prunes no true duplicates;")
	fmt.Fprintln(w, "the paper's default of 0.55 balances safety against cost.")
	return nil
}
