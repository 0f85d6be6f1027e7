package od

import "testing"

// The benchmarks below time the store half of the Step 4–5 kernel on a
// FreeDB-like MemStore: the two lookup tiers of a cold similar-value
// query and the blocking-set merge. `make bench-kernel` runs them beside
// the strdist and sim ones.

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
