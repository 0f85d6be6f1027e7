// Streaming ingestion: corpora larger than RAM through the same pipeline.
//
// The example generates a dirty CD corpus, writes it to disk the way
// cmd/datagen -out does, and runs duplicate detection twice over the same
// file: once materialized (DocSource, the whole tree in memory) and once
// streamed (StreamSource — the pull parser materializes one candidate
// subtree at a time and discards it once its object description is
// flattened). Both schemas are inferred from the file itself, so the
// streamed run demonstrates the full schema-less two-pass flow:
// xsd.InferReader, then anchor ingestion. The run asserts the two results
// are identical and prints the detected clusters plus each mode's
// ingestion profile.
//
//	go run ./examples/streaming
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dirty"
	"repro/internal/heuristics"
	"repro/internal/xmltree"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run returns every failure as an error, so the deferred removal of the
// generated corpus always runs.
func run(w io.Writer) error {
	// Generate and persist the corpus: 80 CDs plus duplicates.
	doc := datagen.FreeDBToXML(datagen.FreeDB(80, 42))
	gen, err := dirty.New(dirty.Dataset1Params(), 43, datagen.FreeDBSynonyms())
	if err != nil {
		return err
	}
	if _, err := gen.DirtyDocument(doc, "/freedb/disc"); err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "dogmatix-streaming")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cds.xml")
	corpus := doc.String()
	if err := os.WriteFile(path, []byte(corpus), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "corpus: %s (%.1f KB on disk)\n\n", filepath.Base(path), float64(len(corpus))/1024)

	mapping := core.NewMapping()
	for typ, paths := range datagen.FreeDBMappingPaths() {
		mapping.MustAdd(typ, paths...)
	}
	det, err := core.NewDetector(mapping, core.Config{
		Heuristic: heuristics.KClosestDescendants(6),
		UseFilter: true,
	})
	if err != nil {
		return err
	}

	detect := func(mode string, input core.SourceInput) (*core.Result, error) {
		res, err := det.DetectInputs("DISC", input)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%s: %d candidates, %d pairs, %d clusters in %v\n",
			mode, res.Stats.Candidates, res.Stats.PairsDetected,
			len(res.Clusters), res.Stats.Elapsed)
		for _, st := range res.Stages {
			fmt.Fprintf(w, "  %-10s items=%-6d %v\n", st.Name, st.Items, st.Elapsed)
		}
		return res, nil
	}

	// Materialized: parse the file into a tree, then detect.
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	parsed, err := xmltree.Parse(bytes.NewReader(data))
	if err != nil {
		return err
	}
	docRes, err := detect("materialized", core.DocSource{Name: path, Doc: parsed})
	if err != nil {
		return err
	}

	// Streamed: the file is read twice (schema inference, then anchor
	// ingestion) but never materialized.
	fmt.Fprintln(w)
	streamRes, err := detect("streamed", core.FileSource(path, nil))
	if err != nil {
		return err
	}

	// The equivalence contract: same pairs, same clusters, bit for bit.
	same := len(docRes.Pairs) == len(streamRes.Pairs) &&
		len(docRes.Clusters) == len(streamRes.Clusters)
	for i := range docRes.Pairs {
		if !same || docRes.Pairs[i] != streamRes.Pairs[i] {
			same = false
			break
		}
	}
	if !same {
		return errors.New("streamed result diverges from materialized result")
	}
	fmt.Fprintf(w, "\nboth modes agree: %d duplicate clusters\n", len(streamRes.Clusters))
	for i, cl := range streamRes.Clusters {
		if len(cl) < 2 {
			continue
		}
		fmt.Fprintf(w, "  cluster %d:", i)
		for _, id := range cl {
			fmt.Fprintf(w, " %s", streamRes.Candidates[id].Path)
		}
		fmt.Fprintln(w)
		if i >= 4 {
			fmt.Fprintf(w, "  ... and %d more\n", len(streamRes.Clusters)-i-1)
			break
		}
	}
	return nil
}
