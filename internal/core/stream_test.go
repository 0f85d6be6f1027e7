package core_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dirty"
	"repro/internal/heuristics"
	"repro/internal/od"
	"repro/internal/od/odrpc"
	"repro/internal/xmltree"
	"repro/internal/xsd"
)

// xmlBytes serializes a generated document so both ingestion modes read
// the identical byte stream.
func xmlBytes(t *testing.T, doc *xmltree.Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// distStore returns a factory building a loopback-transport federation
// of n MemStore partitions — every query and mutation crosses the
// odrpc frame codec over net.Pipe, the exact shape `-store dist`
// without remote addresses runs, with no real sockets.
func distStore(n int) func() od.Store {
	return func() od.Store {
		parts := make([]od.Partition, n)
		for i := range parts {
			parts[i] = odrpc.NewLoopback(od.NewMemStore())
		}
		return od.NewPartitionedStore(parts, 0)
	}
}

// bytesSource is a reopenable StreamSource over an in-memory document.
func bytesSource(name string, data []byte) *core.StreamSource {
	return &core.StreamSource{
		Name: name,
		Open: func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(data)), nil
		},
	}
}

// docInputs re-parses the serialized corpora into DocSources, so the doc
// and stream runs start from the same bytes.
func docInputs(t *testing.T, names []string, corpora [][]byte) []core.SourceInput {
	t.Helper()
	inputs := make([]core.SourceInput, len(corpora))
	for i, data := range corpora {
		doc, err := xmltree.Parse(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		inputs[i] = core.DocSource{Name: names[i], Doc: doc}
	}
	return inputs
}

func streamInputs(names []string, corpora [][]byte) []core.SourceInput {
	inputs := make([]core.SourceInput, len(corpora))
	for i, data := range corpora {
		inputs[i] = bytesSource(names[i], data)
	}
	return inputs
}

// resultFingerprint captures everything the equivalence contract covers:
// candidates (path + source), stage item counts, pruning, filter values,
// pairs with scores, the possible class, clusters, comparison counts and
// the rendered dupcluster XML.
func resultFingerprint(t *testing.T, res *core.Result) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "type=%s\n", res.Type)
	for _, c := range res.Candidates {
		fmt.Fprintf(&sb, "cand src=%d path=%s schema=%s\n", c.Source, c.Path, c.SchemaEl.Path)
	}
	for _, st := range res.Stages {
		fmt.Fprintf(&sb, "stage %s items=%d\n", st.Name, st.Items)
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

// TestStreamDocEquivalence is the acceptance gate of the streaming
// ingestion layer: StreamSource and DocSource must produce bit-identical
// Results — candidates, stage item counts, pruning, pairs, clusters and
// rendered output — on the generated CD and movie corpora, for both store
// backends. Schemas are left nil so the streaming xsd.InferReader pass is
// exercised against tree-based xsd.Infer as part of the contract.
func TestStreamDocEquivalence(t *testing.T) {
	cdDoc := datagen.FreeDBToXML(datagen.FreeDB(60, 2005))
	gen, err := dirty.New(dirty.Dataset1Params(), 2006, datagen.FreeDBSynonyms())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.DirtyDocument(cdDoc, "/freedb/disc"); err != nil {
		t.Fatal(err)
	}
	cdMapping := core.NewMapping()
	for typ, paths := range datagen.FreeDBMappingPaths() {
		cdMapping.MustAdd(typ, paths...)
	}

	movies := datagen.Movies(60, 7)
	movieMapping := core.NewMapping()
	for typ, paths := range datagen.Dataset2MappingPaths() {
		movieMapping.MustAdd(typ, paths...)
	}
	movieMapping.MustMarkComposite(datagen.Dataset2CompositePaths()...)

	cases := []struct {
		name     string
		mapping  *core.Mapping
		typeName string
		srcNames []string
		corpora  [][]byte
		cfg      core.Config
	}{
		{
			name: "cds", mapping: cdMapping, typeName: "DISC",
			srcNames: []string{"freedb"},
			corpora:  [][]byte{xmlBytes(t, cdDoc)},
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
			srcNames: []string{"imdb", "filmdienst"},
			corpora: [][]byte{
				xmlBytes(t, datagen.IMDBToXML(movies)),
				xmlBytes(t, datagen.FilmDienstToXML(movies)),
			},
			cfg: core.Config{
				Heuristic:  heuristics.RDistantDescendants(2),
				ThetaTuple: 0.15,
				ThetaCand:  0.55,
			},
		},
	}

	backends := []struct {
		name     string
		newStore func(t *testing.T) func() od.Store
	}{
		{"memstore", func(t *testing.T) func() od.Store { return nil }},
		// Each Detect call gets a fresh segment directory, so the doc
		// and stream runs never share on-disk state.
		{"disk", func(t *testing.T) func() od.Store {
			return func() od.Store { return od.NewDiskStore(t.TempDir()) }
		}},
		{"dist-1", func(t *testing.T) func() od.Store { return distStore(1) }},
		{"dist-3", func(t *testing.T) func() od.Store { return distStore(3) }},
	}

	for _, tc := range cases {
		for _, be := range backends {
			t.Run(tc.name+"/"+be.name, func(t *testing.T) {
				cfg := tc.cfg
				cfg.NewStore = be.newStore(t)
				det, err := core.NewDetector(tc.mapping, cfg)
				if err != nil {
					t.Fatal(err)
				}
				docRes, err := det.DetectInputs(tc.typeName, docInputs(t, tc.srcNames, tc.corpora)...)
				if err != nil {
					t.Fatal(err)
				}
				if len(docRes.Pairs) == 0 {
					t.Fatal("doc run found no pairs; equivalence would be vacuous")
				}
				streamRes, err := det.DetectInputs(tc.typeName, streamInputs(tc.srcNames, tc.corpora)...)
				if err != nil {
					t.Fatal(err)
				}
				want := resultFingerprint(t, docRes)
				got := resultFingerprint(t, streamRes)
				if got != want {
					t.Errorf("stream result diverges from doc result\n got: %.2000s\nwant: %.2000s", got, want)
				}
				for i, c := range streamRes.Candidates {
					if c.Node != nil {
						t.Fatalf("stream candidate %d retains a subtree node", i)
					}
				}
			})
		}
	}
}

// TestStreamMultiPathOrdering covers the per-path bucket path of the
// ingest sink: one document carrying two candidate paths of the same type
// arrives in document order from the stream but must be reported in the
// candidate-path-major order DocSource produces.
func TestStreamMultiPathOrdering(t *testing.T) {
	const doc = `<lib>
  <journal><title>Science Weekly</title><issue>12</issue></journal>
  <book><title>The Matrix Explained</title><author>Smith</author></book>
  <journal><title>Science Monthly</title><issue>3</issue></journal>
  <book><title>The Matrix Explained</title><author>Smith</author></book>
</lib>`
	mapping := core.NewMapping().
		MustAdd("ITEM", "/lib/book", "/lib/journal").
		MustAdd("TITLE", "/lib/book/title", "/lib/journal/title")

	det, err := core.NewDetector(mapping, core.Config{
		Heuristic:  heuristics.KClosestDescendants(4),
		ThetaTuple: 0.15,
		ThetaCand:  0.40,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(doc)
	parsed, err := xmltree.Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	docRes, err := det.DetectInputs("ITEM", core.DocSource{Name: "lib", Doc: parsed})
	if err != nil {
		t.Fatal(err)
	}
	streamRes, err := det.DetectInputs("ITEM", bytesSource("lib", data))
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"/lib/book[1]", "/lib/book[2]", "/lib/journal[1]", "/lib/journal[2]"}
	for i, want := range wantOrder {
		if docRes.Candidates[i].Path != want || streamRes.Candidates[i].Path != want {
			t.Fatalf("candidate %d: doc=%s stream=%s, want %s",
				i, docRes.Candidates[i].Path, streamRes.Candidates[i].Path, want)
		}
	}
	if got, want := resultFingerprint(t, streamRes), resultFingerprint(t, docRes); got != want {
		t.Errorf("multi-path stream diverges\n got: %s\nwant: %s", got, want)
	}
	if len(docRes.Pairs) != 1 {
		t.Fatalf("pairs = %v, want the two identical books", docRes.Pairs)
	}
}

// TestStreamRejectsAncestorSelections pins the documented streaming
// restriction: heuristics selecting ancestors reach outside the anchor
// subtree and must be rejected with a useful error instead of silently
// diverging from DocSource.
func TestStreamRejectsAncestorSelections(t *testing.T) {
	mapping := core.NewMapping().MustAdd("DISC", "/freedb/disc")
	det, err := core.NewDetector(mapping, core.Config{
		Heuristic: heuristics.RDistantAncestors(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	data := xmlBytes(t, datagen.FreeDBToXML(datagen.FreeDB(5, 1)))
	_, err = det.DetectInputs("DISC", bytesSource("freedb", data))
	if err == nil || !strings.Contains(err.Error(), "outside the candidate subtree") {
		t.Fatalf("err = %v, want streaming restriction error", err)
	}
	// The same heuristic stays fully supported on a DocSource.
	doc, err := xmltree.Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Detect("DISC", core.Source{Name: "freedb", Doc: doc}); err != nil {
		t.Fatalf("doc source rejected ancestor heuristic: %v", err)
	}
}

// TestFileSource runs the schema-less two-pass flow against a real file,
// the way cmd/dogmatix -stream ingests corpora from disk.
func TestFileSource(t *testing.T) {
	data := xmlBytes(t, datagen.FreeDBToXML(datagen.FreeDB(20, 11)))
	path := filepath.Join(t.TempDir(), "cds.xml")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mapping := core.NewMapping()
	for typ, paths := range datagen.FreeDBMappingPaths() {
		mapping.MustAdd(typ, paths...)
	}
	det, err := core.NewDetector(mapping, core.Config{
		Heuristic: heuristics.KClosestDescendants(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.DetectInputs("DISC", core.FileSource(path, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Candidates != 20 {
		t.Fatalf("candidates = %d, want 20", res.Stats.Candidates)
	}
	if res.Candidates[6].Path != "/freedb/disc[7]" {
		t.Fatalf("candidate path = %q, want /freedb/disc[7]", res.Candidates[6].Path)
	}
}

// TestReaderSourceSinglePass pins the ReaderSource contract: with a
// schema the one-shot reader suffices; without one the second open is
// rejected with a clear error rather than producing empty results.
func TestReaderSourceSinglePass(t *testing.T) {
	data := xmlBytes(t, datagen.FreeDBToXML(datagen.FreeDB(10, 3)))
	doc, err := xmltree.Parse(bytes.NewReader(data))
	if err != nil {
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
	det, err := core.NewDetector(mapping, core.Config{
		Heuristic: heuristics.KClosestDescendants(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.DetectInputs("DISC",
		core.ReaderSource("cds", bytes.NewReader(data), schema))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Candidates != 10 {
		t.Fatalf("candidates = %d, want 10", res.Stats.Candidates)
	}

	// Schema-less: inference consumes the reader, ingestion must fail
	// loudly.
	_, err = det.DetectInputs("DISC",
		core.ReaderSource("cds", bytes.NewReader(data), nil))
	if err == nil || !strings.Contains(err.Error(), "already consumed") {
		t.Fatalf("err = %v, want reader-already-consumed error", err)
	}
}
