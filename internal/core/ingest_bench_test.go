package core_test

import (
	"bytes"
	"io"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/heuristics"
	"repro/internal/od"
	"repro/internal/xmltree"
	"repro/internal/xsd"
)

// benchSink keeps the last result reachable while retained heap is
// measured (and defeats dead-code elimination).
var benchSink *core.Result

// BenchmarkIngest compares the two ingestion modes over the same
// serialized CD corpus, through the filter-only pipeline (infer through
// reduce — the stages ingestion feeds). Beyond ns/op and B/op it reports
// retained-MB: the live heap still referenced by the Result after a final
// GC. Neither path retains the document tree — a Result holds only
// candidates and flat ODs, so the two rows retain the same — but only
// the streamed path never holds it: its peak live heap during the pass
// is bounded by one anchor subtree, not by document size.
//
//	go test ./internal/core -run xxx -bench BenchmarkIngest -benchtime 5x
func BenchmarkIngest(b *testing.B) {
	const discs = 1000
	doc := datagen.FreeDBToXML(datagen.FreeDB(discs, 2005))
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	schema, err := xsd.Infer(doc)
	if err != nil {
		b.Fatal(err)
	}
	mapping := core.NewMapping()
	for typ, paths := range datagen.FreeDBMappingPaths() {
		mapping.MustAdd(typ, paths...)
	}
	det, err := core.NewDetector(mapping, core.Config{
		Heuristic:  heuristics.KClosestDescendants(6),
		FilterOnly: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	doc = nil

	measure := func(b *testing.B, run func() (*core.Result, error)) {
		b.ReportAllocs()
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := run()
			if err != nil {
				b.Fatal(err)
			}
			benchSink = res
		}
		b.StopTimer()
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(1<<20), "retained-MB")
		if benchSink.Stats.Candidates != discs {
			b.Fatalf("candidates = %d, want %d", benchSink.Stats.Candidates, discs)
		}
		benchSink = nil
	}

	b.Run("materialized", func(b *testing.B) {
		measure(b, func() (*core.Result, error) {
			d, err := xmltree.Parse(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			return det.Detect("DISC", core.Source{Name: "freedb", Doc: d, Schema: schema})
		})
	})
	b.Run("streamed", func(b *testing.B) {
		measure(b, func() (*core.Result, error) {
			src := &core.StreamSource{
				Name:   "freedb",
				Schema: schema,
				Open: func() (io.ReadCloser, error) {
					return io.NopCloser(bytes.NewReader(data)), nil
				},
			}
			return det.DetectInputs("DISC", src)
		})
	})
	// Stream ingestion into the disk-backed store: the retained-MB
	// column is what the persistence layer buys — the value indexes
	// live in segment files, so the Result retains only candidates,
	// filter output and the store's fixed-capacity caches, while both
	// in-memory rows grow with corpus size.
	b.Run("streamed-disk", func(b *testing.B) {
		dir := b.TempDir()
		n := 0
		detDisk, err := core.NewDetector(mapping, core.Config{
			Heuristic:  heuristics.KClosestDescendants(6),
			FilterOnly: true,
			NewStore: func() od.Store {
				n++
				return od.NewDiskStore(filepath.Join(dir, strconv.Itoa(n)))
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		measure(b, func() (*core.Result, error) {
			src := &core.StreamSource{
				Name:   "freedb",
				Schema: schema,
				Open: func() (io.ReadCloser, error) {
					return io.NopCloser(bytes.NewReader(data)), nil
				},
			}
			return detDisk.DetectInputs("DISC", src)
		})
	})
}
