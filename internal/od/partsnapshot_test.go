package od

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/od/odcodec"
)

// buildMutatedFederation runs the shared mutable fixture script on a
// fresh three-member federation and returns it with the fresh-build
// reference over its live set.
func buildMutatedFederation(t *testing.T) (*PartitionedStore, *MemStore) {
	t.Helper()
	initial, batch2, batch3, remove, liveOf := mutableFixture()
	fed := buildFederation(t, initial, 0.15, mixedBackends(t, 3)...)
	mutationScript(t, fed, batch2, batch3, remove)
	return fed, freshOver(liveOf(fed), 0.15)
}

// TestSavePartitionedRoundTrip pins the partitioned persistence path:
// a mutated federation saves per-partition segment sets plus a
// federation manifest, and OpenPartitioned reassembles a federation
// answering exactly like a fresh build over the live set (compact IDs,
// so the identity remap applies).
func TestSavePartitionedRoundTrip(t *testing.T) {
	fed, fresh := buildMutatedFederation(t)
	defer fed.Close()
	dir := t.TempDir()
	if err := SavePartitioned(dir, fed, SnapshotMeta{Fingerprint: "fed-fp"}); err != nil {
		t.Fatal(err)
	}

	re, err := OpenPartitioned(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumPartitions() != 3 || re.HashSeed() != fed.HashSeed() {
		t.Fatalf("reopened federation has %d partitions, seed %d", re.NumPartitions(), re.HashSeed())
	}
	assertStoreMatchesFresh(t, "partitioned-snapshot", re, fresh)

	// The reopened federation stays mutable: continue updating and
	// re-verify against a fresh reference over the new live set.
	extra := cdODs(4, 123)
	for i := range extra {
		extra[i].Object = "/reopened" + extra[i].Object
	}
	if err := re.AddAfterFinalize(copyODs(extra)); err != nil {
		t.Fatal(err)
	}
	if err := re.Remove([]int32{0}); err != nil {
		t.Fatal(err)
	}
	var live []*OD
	for id := int32(0); id < re.IDSpan(); id++ {
		if re.Alive(id) {
			live = append(live, re.OD(id))
		}
	}
	assertStoreMatchesFresh(t, "partitioned-continued", re, freshOver(live, 0.15))
}

// TestSavePartitionedSeedRoundTrips pins that a non-zero routing seed
// survives the manifest and routes the reopened federation correctly.
func TestSavePartitionedSeedRoundTrips(t *testing.T) {
	ods := cdODs(30, 77)
	parts := make([]Partition, 2)
	for i, b := range mixedBackends(t, 2) {
		parts[i] = LocalPartition{S: b}
	}
	fed := NewPartitionedStore(parts, 0xBEEF)
	for _, o := range ods {
		cp := *o
		fed.Add(&cp)
	}
	fed.Finalize(0.15)
	dir := t.TempDir()
	if err := SavePartitioned(dir, fed, SnapshotMeta{Fingerprint: "seeded"}); err != nil {
		t.Fatal(err)
	}
	re, err := OpenPartitioned(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.HashSeed() != 0xBEEF {
		t.Fatalf("seed %d after reopen", re.HashSeed())
	}
	fresh := freshOver(copyODs(ods), 0.15)
	assertStoreMatchesFresh(t, "seeded", re, fresh)
}

// TestOpenPartitionedRoutingFromManifest pins the persisted routing
// filters end to end: OpenPartitioned restores the coordinator's
// variant filters from the federation manifest — bit-identical to the
// refetch fan-out it replaces — and a manifest without filters is
// rejected, since no refetch fallback exists.
func TestOpenPartitionedRoutingFromManifest(t *testing.T) {
	fed, _ := buildMutatedFederation(t)
	defer fed.Close()
	dir := t.TempDir()
	if err := SavePartitioned(dir, fed, SnapshotMeta{Fingerprint: "routed"}); err != nil {
		t.Fatal(err)
	}

	refetched := func(s *PartitionedStore) []*memberRouting {
		routing := make([]*memberRouting, len(s.parts))
		for i, p := range s.parts {
			fs, err := p.RoutingFilters()
			if err != nil {
				t.Fatal(err)
			}
			routing[i] = newMemberRouting(fs)
		}
		return routing
	}
	assertSameRouting := func(ctx string, got, want []*memberRouting) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d members routed, want %d", ctx, len(got), len(want))
		}
		for i := range got {
			if len(got[i].types) != len(want[i].types) {
				t.Fatalf("%s: member %d has %d filter types, want %d", ctx, i, len(got[i].types), len(want[i].types))
			}
			for typ, wf := range want[i].types {
				gf := got[i].types[typ]
				if gf == nil || !reflect.DeepEqual(*gf, *wf) {
					t.Fatalf("%s: member %d type %q filter diverges:\n got %+v\nwant %+v", ctx, i, typ, gf, wf)
				}
			}
		}
	}

	re, err := OpenPartitioned(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSameRouting("manifest-restored", re.routing, refetched(re))

	// Strip the filters from the manifest: without them the coordinator
	// cannot route, so the open must refuse.
	man, err := odcodec.ReadFederation(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.RoutingFilters = nil
	if err := odcodec.WriteFederation(dir, man); err != nil {
		t.Fatal(err)
	}
	if bare, err := OpenPartitioned(dir); err == nil || !strings.Contains(err.Error(), "no routing filters") {
		if bare != nil {
			bare.Close()
		}
		t.Fatalf("filterless manifest: OpenPartitioned err = %v, want rejection", err)
	}
}

// TestOpenPartitionedRejections pins every integrity gate of the
// federation open path: no manifest, corrupt manifest, a member swapped
// in from another federation, a member with unmerged deltas, and a
// missing member directory must all be rejected with a useful error —
// a federation never assembles from mismatched parts.
func TestOpenPartitionedRejections(t *testing.T) {
	save := func(t *testing.T, fp string) string {
		t.Helper()
		fed, _ := buildMutatedFederation(t)
		defer fed.Close()
		dir := t.TempDir()
		if err := SavePartitioned(dir, fed, SnapshotMeta{Fingerprint: fp}); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("no-manifest", func(t *testing.T) {
		if _, err := OpenPartitioned(t.TempDir()); !errors.Is(err, odcodec.ErrNoFederation) {
			t.Fatalf("err = %v, want ErrNoFederation", err)
		}
	})

	t.Run("corrupt-manifest", func(t *testing.T) {
		dir := save(t, "fp")
		path := filepath.Join(dir, odcodec.FederationFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x20
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenPartitioned(dir); !odcodec.IsCorrupt(err) {
			t.Fatalf("corrupt manifest opened: %v", err)
		}
	})

	t.Run("swapped-member", func(t *testing.T) {
		dirA := save(t, "federation-a")
		dirB := save(t, "federation-b")
		// Splice federation B's first member into A: same shape, wrong
		// provenance.
		target := filepath.Join(dirA, odcodec.PartitionDir(0))
		if err := os.RemoveAll(target); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(filepath.Join(dirB, odcodec.PartitionDir(0)), target); err != nil {
			t.Fatal(err)
		}
		_, err := OpenPartitioned(dirA)
		if err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Fatalf("swapped member opened: %v", err)
		}
	})

	t.Run("member-with-unmerged-deltas", func(t *testing.T) {
		dir := save(t, "fp")
		ds, err := OpenDiskStore(filepath.Join(dir, odcodec.PartitionDir(1)))
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.AddAfterFinalize([]*OD{{Object: "/stray", Tuples: []Tuple{{Value: "x", Name: "/n", Type: "T"}}}}); err != nil {
			t.Fatal(err)
		}
		ds.Close()
		_, err = OpenPartitioned(dir)
		if err == nil || !strings.Contains(err.Error(), "unmerged delta") {
			t.Fatalf("diverged member opened: %v", err)
		}
	})

	t.Run("missing-member", func(t *testing.T) {
		dir := save(t, "fp")
		if err := os.RemoveAll(filepath.Join(dir, odcodec.PartitionDir(2))); err != nil {
			t.Fatal(err)
		}
		_, err := OpenPartitioned(dir)
		if err == nil || !strings.Contains(err.Error(), "partition 2") {
			t.Fatalf("incomplete federation opened: %v", err)
		}
	})
}

// TestSavePartitionedRejectsRemoteMembers pins the coordinator-save
// restriction: a member that does not expose its backing store cannot
// be persisted from here.
func TestSavePartitionedRejectsRemoteMembers(t *testing.T) {
	ods := cdODs(10, 3)
	fed := NewPartitionedStore([]Partition{opaquePartition{LocalPartition{S: NewMemStore()}}}, 0)
	for _, o := range ods {
		cp := *o
		fed.Add(&cp)
	}
	fed.Finalize(0.15)
	err := SavePartitioned(t.TempDir(), fed, SnapshotMeta{})
	if err == nil || !strings.Contains(err.Error(), "remote") {
		t.Fatalf("remote member saved from the coordinator: %v", err)
	}
}

// opaquePartition hides the backing store, like a dialed odrpc client.
type opaquePartition struct {
	Partition
}
