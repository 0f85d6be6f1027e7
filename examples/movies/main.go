// movies: duplicate detection across two differently structured sources
// (the Dataset 2 data-integration scenario).
//
// The same movies are rendered under an IMDB-like and a FilmDienst-like
// schema — German titles, different date formats, split person names —
// and DogmatiX finds the cross-source duplicates through the mapping M.
// The example sweeps the r-distant heuristic to show how description
// breadth trades recall against precision on heterogeneous data.
//
// With -stages, each pipeline stage reports live as it completes (the
// Observer hook of the staged detection pipeline).
//
//	go run ./examples/movies [-n 150] [-stages]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/evalmetrics"
	"repro/internal/heuristics"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, args []string) error {
	flags := flag.NewFlagSet("movies", flag.ContinueOnError)
	n := flags.Int("n", 150, "movies per source")
	seed := flags.Int64("seed", 7, "generator seed")
	stages := flags.Bool("stages", false, "report pipeline stages live on stderr")
	if err := flags.Parse(args); err != nil {
		return err
	}

	movies := datagen.Movies(*n, *seed)
	imdb := datagen.IMDBToXML(movies)
	fd := datagen.FilmDienstToXML(movies)

	mapping := core.NewMapping()
	for typ, paths := range datagen.Dataset2MappingPaths() {
		mapping.MustAdd(typ, paths...)
	}
	// FilmDienst splits person names into firstname/lastname children;
	// compare the person element as one composite value (Table 6's
	// "firstname + lastname").
	mapping.MustMarkComposite(datagen.Dataset2CompositePaths()...)

	gold := evalmetrics.PairSet{}
	for i := 0; i < *n; i++ {
		gold.Add(int32(i), int32(*n+i))
	}

	fmt.Fprintf(w, "%d movies in each source; gold standard pairs source ranks 1:1\n\n", *n)
	fmt.Fprintln(w, "radius  pairs  cross  recall  precision")
	for r := 1; r <= 4; r++ {
		cfg := core.Config{
			Heuristic:  heuristics.RDistantDescendants(r),
			ThetaTuple: 0.15,
			ThetaCand:  0.55,
		}
		if *stages {
			radius := r
			cfg.Observer = core.ObserverFunc(func(st core.StageStats) {
				fmt.Fprintf(os.Stderr, "r=%d stage %-10s items=%-7d %v\n",
					radius, st.Name, st.Items, st.Elapsed)
			})
		}
		det, err := core.NewDetector(mapping, cfg)
		if err != nil {
			return err
		}
		res, err := det.Detect("MOVIE",
			core.Source{Name: "imdb", Doc: imdb},
			core.Source{Name: "filmdienst", Doc: fd},
		)
		if err != nil {
			return err
		}
		cross := 0
		for _, p := range res.Pairs {
			if res.Candidates[p.I].Source != res.Candidates[p.J].Source {
				cross++
			}
		}
		pr := evalmetrics.PairsPR(evalmetrics.NewPairSet(res.PairSet()...), gold)
		fmt.Fprintf(w, "r=%d     %5d  %5d  %5.1f%%     %5.1f%%\n",
			r, len(res.Pairs), cross, pr.Recall*100, pr.Precision*100)
	}
	fmt.Fprintln(w, "\nlow radii see only the year (high recall, poor precision);")
	fmt.Fprintln(w, "middle radii add titles, genres and the contradicting date")
	fmt.Fprintln(w, "formats; the widest radius adds person lists, strong evidence")
	fmt.Fprintln(w, "once firstname + lastname are compared as one composite value.")
	return nil
}
