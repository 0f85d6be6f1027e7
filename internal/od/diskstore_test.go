package od

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/od/odcodec"
)

// buildDisk populates a DiskStore in a temp dir with copies of the ODs
// and finalizes it.
func buildDisk(t *testing.T, ods []*OD, theta float64) *DiskStore {
	t.Helper()
	ds := NewDiskStore(t.TempDir())
	for _, o := range ods {
		cp := *o
		ds.Add(&cp)
	}
	ds.Finalize(theta)
	return ds
}

// assertStoreParity runs every Store query on both stores and fails on
// the first divergence. Stats are compared without the Indexed flag —
// whether a backend uses a deletion-neighborhood index is an
// implementation strategy, not an observable result.
func assertStoreParity(t *testing.T, ref, got Store, label string) {
	t.Helper()
	if ref.Size() != got.Size() || ref.Theta() != got.Theta() {
		t.Fatalf("%s: size/theta diverge: %d/%v vs %d/%v",
			label, ref.Size(), ref.Theta(), got.Size(), got.Theta())
	}
	normStats := func(sts []TypeStats) []TypeStats {
		out := append([]TypeStats(nil), sts...)
		for i := range out {
			out[i].Indexed = false
		}
		return out
	}
	if !reflect.DeepEqual(normStats(ref.Stats()), normStats(got.Stats())) {
		t.Errorf("%s: Stats diverge:\nref: %+v\ngot: %+v", label, ref.Stats(), got.Stats())
	}
	for id := int32(0); id < int32(ref.Size()); id++ {
		or, og := ref.OD(id), got.OD(id)
		if or.Object != og.Object || or.Source != og.Source || !reflect.DeepEqual(or.Tuples, og.Tuples) {
			t.Fatalf("%s: OD(%d) diverges:\nref: %+v\ngot: %+v", label, id, or, og)
		}
		nr, ng := ref.Neighbors(id), got.Neighbors(id)
		if !equalIDs(nr, ng) {
			t.Fatalf("%s: Neighbors(%d) diverge: %v vs %v", label, id, nr, ng)
		}
	}
	for _, o := range ref.ODs() {
		for _, tup := range o.NonEmptyTuples() {
			er, eg := ref.ObjectsWithExact(tup), got.ObjectsWithExact(tup)
			if !equalIDs(er, eg) {
				t.Fatalf("%s: ObjectsWithExact(%v) diverge: %v vs %v", label, tup, er, eg)
			}
			vr, vg := ref.SimilarValues(tup), got.SimilarValues(tup)
			if !equalMatches(vr, vg) {
				t.Fatalf("%s: SimilarValues(%v) diverge:\nref: %v\ngot: %v", label, tup, vr, vg)
			}
			if gr, gg := softIDFOf(ref, tup, tup), softIDFOf(got, tup, tup); gr != gg {
				t.Fatalf("%s: SoftIDFSingle(%v) diverge: %v vs %v", label, tup, gr, gg)
			}
			for _, m := range vr {
				other := Tuple{Value: m.Value, Type: tup.Type}
				if gr, gg := softIDFOf(ref, tup, other), softIDFOf(got, tup, other); gr != gg {
					t.Fatalf("%s: SoftIDF(%v, %v) diverge: %v vs %v", label, tup, other, gr, gg)
				}
			}
		}
	}
}

// TestDiskStoreParity holds DiskStore — freshly finalized AND reopened
// from its segment files — to bit-identical query results against
// MemStore on the generated CD and movie datasets.
func TestDiskStoreParity(t *testing.T) {
	datasets := []struct {
		name  string
		ods   []*OD
		theta float64
	}{
		{"cds", cdODs(120, 2005), 0.15},
		{"cds-coarse", cdODs(80, 7), 0.55},
		{"movies", movieODs(120, 11), 0.15},
	}
	for _, ds := range datasets {
		t.Run(ds.name, func(t *testing.T) {
			mem := NewMemStore()
			for _, o := range ds.ods {
				cp := *o
				mem.Add(&cp)
			}
			mem.Finalize(ds.theta)

			disk := buildDisk(t, ds.ods, ds.theta)
			defer disk.Close()
			assertStoreParity(t, mem, disk, "fresh")

			// Reopen from the segment files alone — the restart path.
			reopened, err := OpenDiskStore(disk.Dir())
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			assertStoreParity(t, mem, reopened, "reopened")
		})
	}
}

// TestDiskStoreLifecycle pins the Store contract on the disk backend:
// sequential IDs, panics on misuse, and the opened-store restrictions.
func TestDiskStoreLifecycle(t *testing.T) {
	ds := buildDisk(t, cdODs(10, 3), 0.15)
	defer ds.Close()
	if ds.Size() != 10 {
		t.Fatalf("Size = %d, want 10", ds.Size())
	}
	mustPanic(t, "Add after Finalize", func() { ds.Add(&OD{}) })
	mustPanic(t, "double Finalize", func() { ds.Finalize(0.15) })

	re, err := OpenDiskStore(ds.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	mustPanic(t, "Add on opened store", func() { re.Add(&OD{}) })
	mustPanic(t, "Finalize on opened store", func() { re.Finalize(0.15) })

	fresh := NewDiskStore(t.TempDir())
	mustPanic(t, "query before Finalize", func() { fresh.Neighbors(0) })

	if _, err := OpenDiskStore(t.TempDir()); err != odcodec.ErrNoSnapshot {
		t.Fatalf("OpenDiskStore(empty) = %v, want ErrNoSnapshot", err)
	}
}

// TestSaveRoundTrips saves every backend into the snapshot format and
// asserts the reopened store answers identically, with the stamped meta
// surviving.
func TestSaveRoundTrips(t *testing.T) {
	ods := cdODs(60, 2005)
	mem := NewMemStore()
	for _, o := range ods {
		c := *o
		mem.Add(&c)
	}
	mem.Finalize(0.15)
	disk := buildDisk(t, ods, 0.15)
	defer disk.Close()

	backends := []struct {
		name string
		s    Store
	}{
		{"memstore", mem},
		{"disk-foreign-dir", disk},
		{"disk-same-dir", disk},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			dir := t.TempDir()
			if be.name == "disk-same-dir" {
				dir = disk.Dir()
			}
			meta := SnapshotMeta{Fingerprint: "fp-" + be.name}
			if err := Save(dir, be.s, meta); err != nil {
				t.Fatal(err)
			}
			re, err := OpenDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Fingerprint() != meta.Fingerprint {
				t.Errorf("fingerprint = %q, want %q", re.Fingerprint(), meta.Fingerprint)
			}
			assertStoreParity(t, mem, re, be.name)
		})
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestDiskStoreODsMaterializes covers the documented ODs() escape
// hatch: the full set materializes once and is stable across calls.
func TestDiskStoreODsMaterializes(t *testing.T) {
	ds := buildDisk(t, movieODs(20, 5), 0.15)
	defer ds.Close()
	all := ds.ODs()
	if len(all) != 20 {
		t.Fatalf("ODs() len = %d, want 20", len(all))
	}
	for i, o := range all {
		if o.ID != int32(i) {
			t.Fatalf("ODs()[%d].ID = %d", i, o.ID)
		}
	}
	if again := ds.ODs(); !reflect.DeepEqual(fmt.Sprintf("%p", again), fmt.Sprintf("%p", all)) {
		t.Error("second ODs() call rebuilt the slice")
	}
}
