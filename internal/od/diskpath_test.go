package od

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// requireMapped holds a test to the memory-mapped access path: the
// default options must map the segments on linux; elsewhere, where the
// reader may fall back to pread, the test is skipped.
func requireMapped(tb testing.TB, disk *DiskStore) {
	tb.Helper()
	if disk.r.MmapActive() {
		return
	}
	if runtime.GOOS == "linux" {
		tb.Fatal("segments are not memory-mapped on linux")
	}
	tb.Skip("memory mapping unavailable on this platform")
}

// The disk tier's allocation contract on a finalized, memory-mapped
// store: cache hits touch the heap not at all, and a similar-value miss
// that matches nothing allocates only what the lookup itself needs —
// the variant buffer of the neighborhood probe on the index tier — and
// nothing per value walked, on either tier.
func TestDiskStoreAllocationGates(t *testing.T) {
	ods := cdODs(200, 2005)
	for _, tier := range []struct {
		name string
		opts DiskOptions
		typ  string // indexed for "index", past the budget tier for "scan"
	}{
		{"index", DiskOptions{}, "DID"},
		{"scan", DiskOptions{DisableNeighborIndex: true}, "TRACK"},
	} {
		t.Run(tier.name, func(t *testing.T) {
			built := buildDisk(t, ods, 0.15)
			built.Close()
			disk, err := OpenDiskStoreWith(built.Dir(), tier.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer disk.Close()
			requireMapped(t, disk)

			var stored Tuple
			for _, tp := range disk.OD(7).Tuples {
				if tp.Type == tier.typ {
					stored = tp
				}
			}
			if len(disk.ObjectsWithExact(stored)) == 0 || len(disk.SimilarValues(stored)) == 0 {
				t.Fatalf("fixture changed: %v finds nothing", stored)
			}
			if n := testing.AllocsPerRun(100, func() { disk.ObjectsWithExact(stored) }); n != 0 {
				t.Errorf("ObjectsWithExact hit allocates %v times", n)
			}
			if n := testing.AllocsPerRun(100, func() { disk.SimilarValues(stored) }); n != 0 {
				t.Errorf("SimilarValues hit allocates %v times", n)
			}

			// Queries of the stored value's length, none of them near any
			// stored value, each asked once: every run is a miss that
			// walks the whole tier.
			runs := 200
			strangers := make([]Tuple, runs+1)
			for i := range strangers {
				strangers[i] = Tuple{Type: tier.typ, Value: fmt.Sprintf("%0*d", len(stored.Value), 7000000+i)}
			}
			before, i := disk.CacheStats()["sim"], 0
			n := testing.AllocsPerRun(runs, func() {
				if m := disk.SimilarValues(strangers[i]); m != nil {
					t.Fatalf("%v matched %v", strangers[i], m)
				}
				i++
			})
			if n > 2 {
				t.Errorf("SimilarValues miss without a match allocates %v times, want <= 2", n)
			}
			if after := disk.CacheStats()["sim"]; after.Misses-before.Misses != uint64(i) {
				t.Errorf("%d of %d stranger queries were misses", after.Misses-before.Misses, i)
			}
			if n := testing.AllocsPerRun(100, func() { disk.ObjectsWithExact(strangers[0]) }); n != 0 {
				t.Errorf("ObjectsWithExact hit on an absent value allocates %v times", n)
			}
		})
	}
}

// Nothing a DiskStore returns or caches may alias its mapping: an
// in-place Save re-points the live store at fresh segments and unmaps
// the old ones. Results obtained before the merge — and the cache
// entries behind them — must read back unchanged after it, and keep
// doing so once the pages are gone.
func TestDiskStoreResultsSurviveInPlaceSave(t *testing.T) {
	ods := cdODs(120, 11)
	built := buildDisk(t, ods[:100], 0.15)
	built.Close()
	disk, err := OpenDiskStore(built.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	requireMapped(t, disk)

	type held struct {
		od      *OD
		exact   [][]int32
		similar [][]ValueMatch
	}
	hold := func() []held {
		var out []held
		for id := int32(0); id < 100; id += 9 {
			h := held{od: disk.OD(id)}
			for _, tp := range h.od.NonEmptyTuples() {
				h.exact = append(h.exact, disk.ObjectsWithExact(tp))
				h.similar = append(h.similar, disk.SimilarValues(tp))
			}
			out = append(out, h)
		}
		return out
	}
	deepCopy := func(hs []held) []held {
		out := make([]held, len(hs))
		for i, h := range hs {
			od := *h.od
			od.Tuples = append([]Tuple(nil), h.od.Tuples...)
			for j := range od.Tuples {
				od.Tuples[j] = Tuple{Value: cloneString(od.Tuples[j].Value), Name: cloneString(od.Tuples[j].Name), Type: cloneString(od.Tuples[j].Type)}
			}
			od.Object = cloneString(od.Object)
			out[i].od = &od
			for _, ids := range h.exact {
				out[i].exact = append(out[i].exact, append([]int32(nil), ids...))
			}
			for _, ms := range h.similar {
				var cp []ValueMatch
				for _, m := range ms {
					cp = append(cp, ValueMatch{Value: cloneString(m.Value), Objects: append([]int32(nil), m.Objects...), Dist: m.Dist})
				}
				out[i].similar = append(out[i].similar, cp)
			}
		}
		return out
	}
	same := func(a, b []held) bool {
		for i := range a {
			if !reflect.DeepEqual(a[i].od.Tuples, b[i].od.Tuples) || a[i].od.Object != b[i].od.Object ||
				!reflect.DeepEqual(a[i].exact, b[i].exact) || !reflect.DeepEqual(a[i].similar, b[i].similar) {
				return false
			}
		}
		return len(a) == len(b)
	}

	clean := hold()
	cleanCopy := deepCopy(clean)
	if err := disk.AddAfterFinalize(copyODs(ods[100:])); err != nil {
		t.Fatal(err)
	}
	if err := disk.Remove([]int32{3, 50}); err != nil {
		t.Fatal(err)
	}
	merged := hold() // answers merged through the overlay
	mergedCopy := deepCopy(merged)

	old := disk.r
	if err := Save(disk.Dir(), disk, SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	if disk.r == old || disk.Mutated() {
		t.Fatal("Save did not merge in place")
	}
	if !same(clean, cleanCopy) || !same(merged, mergedCopy) {
		t.Fatal("results held across the in-place merge changed")
	}
	if after := hold(); !same(after, mergedCopy) {
		t.Fatal("the merged store answers differently from the overlay it folded")
	}
}

// cloneString copies s byte by byte, so the copy cannot share s's
// backing bytes.
func cloneString(s string) string { return string(append([]byte(nil), s...)) }
