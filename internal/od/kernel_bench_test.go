package od

import (
	"testing"

	"repro/internal/od/odcodec"
)

// The benchmarks below time the store half of the Step 4–5 kernel on a
// FreeDB-like corpus: the two lookup tiers of a cold similar-value
// query and the blocking-set merge on MemStore, then the same tiers and
// one posting-list question on a DiskStore. `make bench-kernel` runs
// them beside the strdist and sim ones.

func kernelBenchStore(b *testing.B) *MemStore {
	b.Helper()
	s := NewMemStore()
	for _, o := range cdODs(1500, 2005) {
		s.Add(o)
	}
	s.Finalize(0.15)
	return s
}

var benchIdx []int32

// BenchmarkTypeIndexCollect runs one uncached similar-value lookup per
// iteration: "indexed" through the deletion-neighborhood tier (DID:
// 1500 eight-rune values at budget 1), "scan" through the
// length-windowed scan (ARTIST and TRACK: values past the 20-rune tier).
func BenchmarkTypeIndexCollect(b *testing.B) {
	s := kernelBenchStore(b)
	for _, bc := range []struct {
		name, typ string
		indexed   bool
	}{{"indexed/DID", "DID", true}, {"scan/ARTIST", "ARTIST", false}, {"scan/TRACK", "TRACK", false}} {
		ti := s.types[bc.typ]
		if ti == nil || (ti.neighbor != nil) != bc.indexed {
			b.Fatalf("%s: fixture changed, index tier is %v", bc.typ, ti != nil && ti.neighbor != nil)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var runes [64]rune
			for i := 0; i < b.N; i++ {
				q := newQuery(runes[:0], ti.values[i%len(ti.values)])
				benchIdx = ti.collect(benchIdx[:0], q, s.theta)
			}
		})
	}
}

// BenchmarkNeighborsOf merges one object's blocking set from cached
// similar-value answers.
func BenchmarkNeighborsOf(b *testing.B) {
	s := kernelBenchStore(b)
	n := int32(s.Size())
	for id := int32(0); id < n; id++ {
		s.Neighbors(id) // fill the similar-value cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchIdx = neighborsOf(s, int32(i)%n)
	}
}

// kernelBenchDisk is kernelBenchStore's corpus finalized to disk and
// reopened in the given access mode, with each type's distinct values.
func kernelBenchDisk(b *testing.B, mode odcodec.MmapMode) (*DiskStore, map[string][]string) {
	b.Helper()
	built := NewDiskStore(b.TempDir())
	values := map[string][]string{}
	seen := map[Tuple]bool{}
	for _, o := range cdODs(1500, 2005) {
		built.Add(o)
		for _, t := range o.Tuples {
			if k := (Tuple{Type: t.Type, Value: t.Value}); t.Value != "" && !seen[k] {
				seen[k] = true
				values[t.Type] = append(values[t.Type], t.Value)
			}
		}
	}
	built.Finalize(0.15)
	built.Close()
	disk, err := OpenDiskStoreWith(built.Dir(), DiskOptions{Mmap: mode})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { disk.Close() })
	if mode == odcodec.MmapAuto {
		requireMapped(b, disk)
	}
	return disk, values
}

var benchMatches []ValueMatch

// BenchmarkDiskSimilarValues is BenchmarkTypeIndexCollect's disk tier:
// one uncached similar-value lookup per iteration through the persisted
// neighborhood segment ("index", DID) and through the segment scan
// ("scan", TRACK), from the mapping and by positioned reads.
func BenchmarkDiskSimilarValues(b *testing.B) {
	for _, mode := range []struct {
		name string
		mode odcodec.MmapMode
	}{{"mmap", odcodec.MmapAuto}, {"pread", odcodec.MmapOff}} {
		disk, values := kernelBenchDisk(b, mode.mode)
		for _, tier := range []struct{ name, typ string }{{"index", "DID"}, {"scan", "TRACK"}} {
			vals := values[tier.typ]
			b.Run(tier.name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				var runes [64]rune
				for i := 0; i < b.N; i++ {
					q := newQuery(runes[:0], vals[i%len(vals)])
					m, indexed := disk.similarFromIndex(tier.typ, q)
					if indexed != (tier.name == "index") {
						b.Fatalf("%s: fixture changed, index tier is %v", tier.typ, indexed)
					}
					if !indexed {
						m = disk.similarFromScan(tier.typ, q)
					}
					benchMatches = m
				}
			})
		}
	}
}

// BenchmarkDiskObjectsWithExact is one posting-list question: "hit"
// from the posting cache, "miss" through the sparse directory and one
// index block (the cache is dropped once per pass over the values).
func BenchmarkDiskObjectsWithExact(b *testing.B) {
	disk, values := kernelBenchDisk(b, odcodec.MmapAuto)
	vals := values["TRACK"]
	for _, miss := range []bool{false, true} {
		name := "hit"
		if miss {
			name = "miss"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if miss && i%len(vals) == 0 {
					disk.invalidate()
				}
				benchIdx = disk.ObjectsWithExact(Tuple{Type: "TRACK", Value: vals[i%len(vals)]})
			}
		})
	}
}
