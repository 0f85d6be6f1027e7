package od

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// runFinalizeBench measures Finalize alone: stores are populated off the
// clock, then timed while building their indexes.
func runFinalizeBench(b *testing.B, base []*OD, mk func() Store) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := mk()
		for _, o := range base {
			cp := *o
			s.Add(&cp)
		}
		b.StartTimer()
		s.Finalize(0.15)
	}
}

// BenchmarkFinalize compares index construction across store backends.
// Run with -cpu=1,2,4 to see the federation's per-member builds scale
// with GOMAXPROCS while MemStore stays serial.
func BenchmarkFinalize(b *testing.B) {
	base := cdODs(3000, 2005)
	b.Run("memstore", func(b *testing.B) {
		runFinalizeBench(b, base, func() Store { return NewMemStore() })
	})
	// Partition-parallel Finalize: every member builds its hash slice of
	// the indexes on its own goroutine. Single-core-CI caveat: the CI
	// container runs GOMAXPROCS=1, so the members serialize there and
	// this row mostly measures the shadow split plus per-member builds —
	// cross-member speedup (and the odrpc codec cost of the loopback
	// deployment, odrpc.call_us on the reference benchmark's serve_dist
	// workload) must be measured on multicore hardware.
	for _, parts := range []int{3} {
		b.Run(fmt.Sprintf("dist-%d", parts), func(b *testing.B) {
			runFinalizeBench(b, base, func() Store {
				members := make([]Partition, parts)
				for i := range members {
					members[i] = LocalPartition{S: NewMemStore()}
				}
				return NewPartitionedStore(members, 0)
			})
		})
	}
}

// BenchmarkNeighborQueries measures concurrent blocking-set queries (the
// Step 5 access pattern) against MemStore.
func BenchmarkNeighborQueries(b *testing.B) {
	base := cdODs(1500, 2005)
	bench := func(b *testing.B, s Store) {
		for _, o := range base {
			cp := *o
			s.Add(&cp)
		}
		s.Finalize(0.15)
		n := int32(s.Size())
		var cursor int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				id := int32(atomic.AddInt64(&cursor, 1)) % n
				s.Neighbors(id)
			}
		})
	}
	b.Run("memstore", func(b *testing.B) { bench(b, NewMemStore()) })
}
