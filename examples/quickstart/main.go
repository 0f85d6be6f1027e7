// Quickstart: the paper's running example end to end.
//
// It builds the three movies of Table 1 and the mapping of Table 3,
// selects descriptions with the hrd[csdt ∧ ccm] heuristic combination
// (titles, actor names and roles — the string-typed elements with text),
// runs the DogmatiX pipeline and prints the object descriptions, the
// detected pair and the Fig. 3 dupcluster XML.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/xmltree"
)

const movieDoc = `<moviedoc>
  <movie>
    <title>The Matrix</title>
    <year>1999</year>
    <actor><name>Keanu Reeves</name><role>Neo</role></actor>
    <actor><name>L. Fishburne</name><role>Morpheus</role></actor>
  </movie>
  <movie>
    <title>Matrix</title>
    <year>1999</year>
    <actor><name>Keanu Reeves</name><role>The One</role></actor>
  </movie>
  <movie>
    <title>Signs</title>
    <year>2002</year>
    <actor><name>Mel Gibson</name><role>Graham Hess</role></actor>
  </movie>
</moviedoc>`

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	doc, err := xmltree.ParseString(movieDoc)
	if err != nil {
		return err
	}

	// Table 3: the mapping M from schema paths to real-world types.
	mapping := core.NewMapping().
		MustAdd("MOVIE", "$doc/moviedoc/movie").
		MustAdd("TITLE", "$doc/moviedoc/movie/title").
		MustAdd("YEAR", "$doc/moviedoc/movie/year").
		MustAdd("ACTOR", "$doc/moviedoc/movie/actor").
		MustAdd("ACTORNAME", "$doc/moviedoc/movie/actor/name").
		MustAdd("ACTORROLE", "$doc/moviedoc/movie/actor/role")

	// Description selection: all children plus grandchildren of string
	// type with text — the paper's hrd[csdt ∧ ccm] example combination.
	h, err := heuristics.ParseSpec("rd:2[csdt,ccm]")
	if err != nil {
		return err
	}

	det, err := core.NewDetector(mapping, core.Config{
		Heuristic:  h,
		ThetaTuple: 0.55, // the introductory example works at coarse tuple similarity
		ThetaCand:  0.55,
	})
	if err != nil {
		return err
	}

	res, err := det.Detect("MOVIE", core.Source{Name: "moviedoc", Doc: doc})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "candidates: %d\n", res.Stats.Candidates)
	for _, o := range res.Store.ODs() {
		fmt.Fprintf(w, "OD of %s:\n", o.Object)
		for _, t := range o.Tuples {
			fmt.Fprintf(w, "  %s\n", t)
		}
	}
	fmt.Fprintln(w)
	for _, p := range res.Pairs {
		fmt.Fprintf(w, "duplicates: %s <-> %s (sim %.2f)\n",
			res.Candidates[p.I].Path, res.Candidates[p.J].Path, p.Score)
	}
	fmt.Fprintln(w)
	if err := res.WriteXML(w); err != nil {
		return err
	}

	fmt.Fprintln(w, "\npipeline stages:")
	for _, st := range res.Stages {
		fmt.Fprintf(w, "  %-10s items=%-4d %v\n", st.Name, st.Items, st.Elapsed)
	}
	return nil
}
