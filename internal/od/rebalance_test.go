package od

import (
	"reflect"
	"testing"

	"repro/internal/od/odcodec"
)

// freshFederation builds a federation over nParts MemStore members at
// the given routing seed from copies of the ODs.
func freshFederation(ods []*OD, theta float64, nParts int, seed uint32) *PartitionedStore {
	parts := make([]Partition, nParts)
	for i := range parts {
		parts[i] = LocalPartition{S: NewMemStore()}
	}
	fed := NewPartitionedStore(parts, seed)
	for _, o := range ods {
		cp := *o
		fed.Add(&cp)
	}
	fed.Finalize(theta)
	return fed
}

// assertFederationsAgree compares two finalized federations query by
// query over every live tuple — the bit-identity gate between a
// rebalanced federation and a fresh build at the same layout.
func assertFederationsAgree(t *testing.T, name string, a, b *PartitionedStore) {
	t.Helper()
	if a.Size() != b.Size() || a.IDSpan() != b.IDSpan() || a.Theta() != b.Theta() {
		t.Fatalf("%s: size/span/theta diverge: %d/%d/%v vs %d/%d/%v",
			name, a.Size(), a.IDSpan(), a.Theta(), b.Size(), b.IDSpan(), b.Theta())
	}
	for id := int32(0); id < a.IDSpan(); id++ {
		ao, bo := a.OD(id), b.OD(id)
		if (ao == nil) != (bo == nil) {
			t.Fatalf("%s: OD(%d) liveness diverges", name, id)
		}
		if ao == nil {
			continue
		}
		if ao.Object != bo.Object || !reflect.DeepEqual(ao.Tuples, bo.Tuples) {
			t.Fatalf("%s: OD(%d) diverges", name, id)
		}
		if got, want := a.Neighbors(id), b.Neighbors(id); !equalIDs(got, want) {
			t.Fatalf("%s: Neighbors(%d) = %v, want %v", name, id, got, want)
		}
		for _, tup := range ao.NonEmptyTuples() {
			if got, want := a.ObjectsWithExact(tup), b.ObjectsWithExact(tup); !equalIDs(got, want) {
				t.Fatalf("%s: ObjectsWithExact(%v) = %v, want %v", name, tup, got, want)
			}
			if got, want := a.SimilarValues(tup), b.SimilarValues(tup); !equalMatches(got, want) {
				t.Fatalf("%s: SimilarValues(%v) diverge:\n%v\n%v", name, tup, got, want)
			}
			if got, want := a.SoftIDFSingle(tup), b.SoftIDFSingle(tup); got != want {
				t.Fatalf("%s: SoftIDFSingle(%v) = %v, want %v", name, tup, got, want)
			}
		}
	}
	as, bs := a.Stats(), b.Stats()
	for i := range as {
		as[i].Indexed = false
	}
	for i := range bs {
		bs[i].Indexed = false
	}
	if !reflect.DeepEqual(as, bs) {
		t.Fatalf("%s: Stats diverge:\n%v\n%v", name, as, bs)
	}
}

// TestRebalanceRoundTrip pins the tentpole rebalance contract on a
// mutated federation: 3 partitions stream to 5 (new seed) and on to 2,
// each hop bit-identical to a federation built fresh at that layout
// over the surviving objects, with the provenance stamped and the
// source federation left serving.
func TestRebalanceRoundTrip(t *testing.T) {
	initial, batch2, batch3, remove, liveOf := mutableFixture()
	const theta = 0.15
	fed := buildFederation(t, initial, theta, mixedBackends(t, 3)...)
	defer fed.Close()
	mutationScript(t, fed, batch2, batch3, remove)
	live := copyODs(liveOf(fed))
	fresh := freshOver(live, theta)

	ns, err := fed.Rebalance(memParts(5), 7)
	if err != nil {
		t.Fatalf("Rebalance 3->5: %v", err)
	}
	defer ns.Close()
	if ri := ns.RebalancedFrom(); ri == nil || ri.FromPartitions != 3 || ri.FromSeed != 0 {
		t.Fatalf("RebalancedFrom = %+v, want {3 0}", ri)
	}
	if ns.NumPartitions() != 5 || ns.HashSeed() != 7 {
		t.Fatalf("rebalanced layout = %d partitions seed %d", ns.NumPartitions(), ns.HashSeed())
	}
	// The rebalanced ID space is dense: holes compacted away.
	if ns.IDSpan() != int32(ns.Size()) || ns.Size() != fresh.Size() {
		t.Fatalf("rebalanced span/size = %d/%d, fresh size %d", ns.IDSpan(), ns.Size(), fresh.Size())
	}
	assertStoreMatchesFresh(t, "rebalanced-3to5", ns, fresh)
	fed5 := freshFederation(live, theta, 5, 7)
	defer fed5.Close()
	assertFederationsAgree(t, "3to5-vs-fresh5", ns, fed5)

	// The source federation is untouched — still serving, not poisoned.
	assertStoreMatchesFresh(t, "source-after-rebalance", fed, fresh)

	// Chain the hop down to 2 partitions at the default seed.
	ns2, err := ns.Rebalance(memParts(2), 0)
	if err != nil {
		t.Fatalf("Rebalance 5->2: %v", err)
	}
	defer ns2.Close()
	if ri := ns2.RebalancedFrom(); ri == nil || ri.FromPartitions != 5 || ri.FromSeed != 7 {
		t.Fatalf("chained RebalancedFrom = %+v, want {5 7}", ri)
	}
	assertStoreMatchesFresh(t, "rebalanced-5to2", ns2, fresh)
	fed2 := freshFederation(live, theta, 2, 0)
	defer fed2.Close()
	assertFederationsAgree(t, "5to2-vs-fresh2", ns2, fed2)

	// A rebalanced federation is a full MutableStore: mutations continue.
	extra := cdODs(3, 123)
	if err := ns2.AddAfterFinalize(copyODs(extra)); err != nil {
		t.Fatalf("AddAfterFinalize on rebalanced federation: %v", err)
	}
	assertStoreMatchesFresh(t, "rebalanced-mutated", ns2, freshOver(append(copyODs(live), extra...), theta))
}

// memParts builds n empty in-process MemStore members.
func memParts(n int) []Partition {
	parts := make([]Partition, n)
	for i := range parts {
		parts[i] = LocalPartition{S: NewMemStore()}
	}
	return parts
}

// TestRebalancePersistRoundTrip pins the manifest side of elastic
// federation: replica counts and rebalance provenance survive
// SavePartitioned / ReadFederation / OpenPartitioned, and the reopened
// rebalanced federation keeps answering like a fresh build after
// mutations.
func TestRebalancePersistRoundTrip(t *testing.T) {
	initial, batch2, batch3, remove, liveOf := mutableFixture()
	const theta = 0.15
	fed := NewPartitionedStore(memParts(3), 0)
	groups := make([][]Partition, 3)
	for i := range groups {
		groups[i] = []Partition{LocalPartition{S: NewMemStore()}}
	}
	if err := fed.AttachReplicas(groups); err != nil {
		t.Fatal(err)
	}
	for _, o := range initial {
		cp := *o
		fed.Add(&cp)
	}
	fed.Finalize(theta)
	defer fed.Close()
	mutationScript(t, fed, batch2, batch3, remove)
	fresh := freshOver(liveOf(fed), theta)

	dir := t.TempDir()
	if err := SavePartitioned(dir, fed, SnapshotMeta{Fingerprint: "elastic"}); err != nil {
		t.Fatal(err)
	}
	manifest, err := odcodec.ReadFederation(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(manifest.Replicas, []int{1, 1, 1}) {
		t.Fatalf("manifest replicas = %v, want [1 1 1]", manifest.Replicas)
	}
	if manifest.Rebalanced != nil {
		t.Fatalf("fresh federation carries rebalance provenance %+v", manifest.Rebalanced)
	}

	ns, err := fed.Rebalance(memParts(5), 9)
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	nsDir := t.TempDir()
	if err := SavePartitioned(nsDir, ns, SnapshotMeta{Fingerprint: ns.Fingerprint()}); err != nil {
		t.Fatal(err)
	}
	manifest, err = odcodec.ReadFederation(nsDir)
	if err != nil {
		t.Fatal(err)
	}
	if manifest.Replicas != nil {
		t.Fatalf("unreplicated rebalanced federation persisted replicas %v", manifest.Replicas)
	}
	if manifest.Rebalanced == nil || manifest.Rebalanced.FromPartitions != 3 || manifest.Rebalanced.FromSeed != 0 {
		t.Fatalf("manifest rebalance provenance = %+v, want {3 0}", manifest.Rebalanced)
	}

	re, err := OpenPartitioned(nsDir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if ri := re.RebalancedFrom(); ri == nil || ri.FromPartitions != 3 || ri.FromSeed != 0 {
		t.Fatalf("reopened RebalancedFrom = %+v, want {3 0}", ri)
	}
	assertStoreMatchesFresh(t, "reopened-rebalanced", re, fresh)

	extra := cdODs(2, 321)
	if err := re.AddAfterFinalize(copyODs(extra)); err != nil {
		t.Fatalf("AddAfterFinalize on the reopened federation: %v", err)
	}
	if err := re.Remove([]int32{0}); err != nil {
		t.Fatalf("Remove on the reopened federation: %v", err)
	}
	var live []*OD
	for id := int32(0); id < re.IDSpan(); id++ {
		if re.Alive(id) {
			live = append(live, re.OD(id))
		}
	}
	assertStoreMatchesFresh(t, "reopened-mutated", re, freshOver(live, theta))
}
