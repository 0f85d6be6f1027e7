package od

import (
	"fmt"
	"testing"

	"repro/internal/od/odcodec"
)

// TestDiskStoreAccessModeParity holds every disk query-path
// configuration — mmap auto/off crossed with the neighborhood index
// enabled or forced back to segment scans — to bit-identical results
// against MemStore. The index-off rows are what pin the fast path to
// the scan it replaced.
func TestDiskStoreAccessModeParity(t *testing.T) {
	datasets := []struct {
		name  string
		ods   []*OD
		theta float64
	}{
		{"cds", cdODs(100, 2005), 0.15},
		{"cds-coarse", cdODs(60, 7), 0.55},
		{"movies", movieODs(100, 11), 0.15},
	}
	for _, ds := range datasets {
		t.Run(ds.name, func(t *testing.T) {
			mem := NewMemStore()
			for _, o := range ds.ods {
				cp := *o
				mem.Add(&cp)
			}
			mem.Finalize(ds.theta)

			base := buildDisk(t, ds.ods, ds.theta)
			dir := base.Dir()
			base.Close()

			for _, opts := range []DiskOptions{
				{Mmap: odcodec.MmapAuto},
				{Mmap: odcodec.MmapOff},
				{Mmap: odcodec.MmapAuto, DisableNeighborIndex: true},
				{Mmap: odcodec.MmapOff, DisableNeighborIndex: true},
			} {
				label := fmt.Sprintf("pread=%v/scan=%v", opts.Mmap == odcodec.MmapOff, opts.DisableNeighborIndex)
				disk, err := OpenDiskStoreWith(dir, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertStoreParity(t, mem, disk, label)
				disk.Close()
			}
		})
	}
}

// TestDiskStoreCacheStats exercises the shared LRU's counter surface:
// a repeated query hits, distinct queries miss, and tiny capacities are
// reported as configured.
func TestDiskStoreCacheStats(t *testing.T) {
	disk := buildDisk(t, cdODs(40, 9), 0.15)
	defer disk.Close()

	tup := disk.OD(0).NonEmptyTuples()[0]
	disk.SimilarValues(tup)
	disk.SimilarValues(tup) // second probe must be served from cache

	stats := disk.CacheStats()
	for _, name := range []string{"od", "occ", "sim"} {
		cs, ok := stats[name]
		if !ok {
			t.Fatalf("CacheStats missing %q: %+v", name, stats)
		}
		if cs.Capacity <= 0 || cs.Entries > cs.Capacity {
			t.Errorf("cache %q: entries %d / capacity %d", name, cs.Entries, cs.Capacity)
		}
	}
	sim := stats["sim"]
	if sim.Hits == 0 {
		t.Errorf("sim cache recorded no hit after a repeated query: %+v", sim)
	}
	if sim.Misses == 0 {
		t.Errorf("sim cache recorded no miss: %+v", sim)
	}
}

// TestPartitionedStoreCacheStats: the federation's merged-answer caches
// expose the same counter surface.
func TestPartitionedStoreCacheStats(t *testing.T) {
	ps := buildFederation(t, cdODs(30, 21), 0.15, NewMemStore(), NewMemStore())

	tup := ps.OD(0).NonEmptyTuples()[0]
	ps.SimilarValues(tup)
	ps.SimilarValues(tup)

	stats := ps.CacheStats()
	for _, name := range []string{"occ", "sim"} {
		if _, ok := stats[name]; !ok {
			t.Fatalf("CacheStats missing %q: %+v", name, stats)
		}
	}
	if stats["sim"].Hits == 0 {
		t.Errorf("sim cache recorded no hit after a repeated query: %+v", stats["sim"])
	}
}
