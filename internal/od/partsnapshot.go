package od

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"

	"repro/internal/od/odcodec"
)

// This file is the persistence side of the distributed store: a
// partitioned snapshot is a directory of per-partition odcodec segment
// sets (part-NNNNN/, each a complete DiskStore snapshot of that
// member's shadow store) plus a coordinator snapshot holding the full
// object descriptions, committed last by the federation manifest
// (partition count, routing hash seed, θtuple, per-partition
// fingerprints). SavePartitioned writes one; OpenPartitioned verifies
// and reassembles it — every member's fingerprint must match the
// manifest, so a stale, swapped or partially copied member is rejected
// instead of silently serving a subset of the value space.

// partitionFingerprint derives the provenance stamped on (and expected
// from) one member snapshot: the federation fingerprint bound to the
// member's position and the routing parameters, so a member file set
// can never be mistaken for another member's — or for a whole-store
// snapshot.
func partitionFingerprint(fedFingerprint string, part, parts int, seed uint32) string {
	h := sha256.New()
	fmt.Fprintf(h, "dogmatix-partition;%d:%s;%d/%d;seed=%d;", len(fedFingerprint), fedFingerprint, part, parts, seed)
	return hex.EncodeToString(h.Sum(nil))
}

// SavePartitioned persists a finalized federation into dir: each
// member's backing store exports a compact snapshot into part-NNNNN/
// (mutated federations compact identically in every member — they
// share one alive set), the coordinator's object directory exports as
// a snapshot with no value indexes, and the federation manifest
// commits the whole set.
//
// Every member must expose its backing store (local members and
// loopback transports do); a genuinely remote member persists on its
// own node, and saving such a federation from the coordinator is
// rejected. A mutated DiskStore member living inside its own target
// partition directory is also rejected: its in-place merge would keep
// the ID space while the other members compact, misaligning the
// federation — save into a fresh directory instead.
func SavePartitioned(dir string, s *PartitionedStore, meta SnapshotMeta) error {
	s.mustBeFinal()
	s.mustBeHealthy()
	for i, p := range s.parts {
		bs, ok := p.(BackingStore)
		if !ok || bs.BackingStore() == nil {
			return fmt.Errorf("od: save: partition %d is remote; its segments persist on its own node, not from the coordinator", i)
		}
	}
	fed := odcodec.Federation{
		Partitions:       len(s.parts),
		HashSeed:         s.seed,
		Theta:            s.theta,
		PartFingerprints: make([]string, len(s.parts)),
		RoutingFilters:   make([][]odcodec.RoutingFilter, len(s.parts)),
	}
	if s.replicas != nil {
		fed.Replicas = make([]int, len(s.parts))
		for i := range s.replicas {
			fed.Replicas[i] = len(s.replicas[i])
		}
	}
	if s.rebalanced != nil {
		fed.Rebalanced = &odcodec.RebalanceProvenance{
			FromPartitions: s.rebalanced.FromPartitions,
			FromSeed:       s.rebalanced.FromSeed,
		}
	}
	for i, p := range s.parts {
		backing := p.(BackingStore).BackingStore()
		partDir := filepath.Join(dir, odcodec.PartitionDir(i))
		if ds, ok := backing.(*DiskStore); ok && ds.InDir(partDir) && ds.mut != nil {
			return fmt.Errorf("od: save: partition %d is a mutated DiskStore living in its own target directory; an in-place merge would misalign the federation's compacted IDs — save into a fresh directory", i)
		}
		fp := partitionFingerprint(meta.Fingerprint, i, len(s.parts), s.seed)
		fed.PartFingerprints[i] = fp
		if err := Save(partDir, backing, SnapshotMeta{Fingerprint: fp}); err != nil {
			return fmt.Errorf("od: save partition %d: %w", i, err)
		}
		// Persist the member's routing filters as OpenPartitioned would
		// refetch them: computed from the snapshot just written, not the
		// live backing store, so a mutated member (whose live filters
		// degrade to uncovered) still persists the covered filters its
		// merged segments deserve.
		ds, err := OpenDiskStore(partDir)
		if err != nil {
			return fmt.Errorf("od: save partition %d: reopen for routing filters: %w", i, err)
		}
		fed.RoutingFilters[i] = encodeRoutingFilters(RoutingFilters(ds))
		ds.Close()
	}

	// Coordinator snapshot: the full object directory, compacted over
	// the live set exactly like the members, with no value indexes.
	err := writeSnapshot(dir, snapshotSource{
		theta:  s.theta,
		span:   int32(len(s.ods)),
		alive:  func(id int32) bool { return s.ods[id] != nil },
		record: odsRecords(s.ods),
	}, idPlan{}, meta.Fingerprint)
	if err != nil {
		return err
	}

	// The federation manifest commits the set — written last, so a
	// crash mid-save leaves no (new) federation.
	return odcodec.WriteFederation(dir, fed)
}

// OpenPartitioned reopens a partitioned snapshot as a serving
// federation over local members: every part-NNNNN/ opens as a
// DiskStore whose fingerprint, θtuple and ID span must match the
// manifest and the coordinator snapshot, and the coordinator's object
// directory is rebuilt from its own snapshot. A member with unmerged
// delta segments is rejected — its live state has diverged from the
// fingerprint the manifest vouches for.
//
// The returned federation is fully mutable and queryable; its members
// are in-process DiskStores (wrap them behind odrpc servers to serve
// them to remote coordinators).
func OpenPartitioned(dir string) (*PartitionedStore, error) {
	fed, err := odcodec.ReadFederation(dir)
	if err != nil {
		return nil, err
	}
	if fed.RoutingFilters == nil {
		return nil, fmt.Errorf("od: federation manifest in %s carries no routing filters", dir)
	}
	r, err := odcodec.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("od: open federation coordinator snapshot: %w", err)
	}
	defer r.Close()
	meta := r.Meta()
	n := meta.NumODs
	ods := make([]*OD, n)
	for id := int32(0); id < int32(n); id++ {
		obj, src, tuples, err := r.OD(id)
		if err != nil {
			return nil, err
		}
		o := &OD{ID: id, Object: obj, Source: int(src), Tuples: make([]Tuple, len(tuples))}
		for i, t := range tuples {
			o.Tuples[i] = Tuple{Value: t.Value, Name: t.Name, Type: t.Type}
		}
		ods[id] = o
	}
	if fed.Theta != meta.Theta {
		return nil, fmt.Errorf("od: federation manifest θ=%v, coordinator snapshot θ=%v", fed.Theta, meta.Theta)
	}

	parts := make([]Partition, 0, fed.Partitions)
	closeAll := func() {
		for _, p := range parts {
			p.Close()
		}
	}
	for i := 0; i < fed.Partitions; i++ {
		ds, err := OpenDiskStore(filepath.Join(dir, odcodec.PartitionDir(i)))
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("od: open partition %d: %w", i, err)
		}
		switch {
		case ds.Fingerprint() != fed.PartFingerprints[i]:
			ds.Close()
			closeAll()
			return nil, fmt.Errorf("od: partition %d fingerprint %.12s does not match the federation manifest — stale or foreign member snapshot", i, ds.Fingerprint())
		case ds.Mutated():
			ds.Close()
			closeAll()
			return nil, fmt.Errorf("od: partition %d carries unmerged delta segments; its live state diverged from the saved federation", i)
		case ds.Theta() != fed.Theta:
			ds.Close()
			closeAll()
			return nil, fmt.Errorf("od: partition %d built for θ=%v, federation expects θ=%v", i, ds.Theta(), fed.Theta)
		case ds.Size() != n || ds.IDSpan() != int32(n):
			ds.Close()
			closeAll()
			return nil, fmt.Errorf("od: partition %d spans %d objects, coordinator has %d", i, ds.Size(), n)
		}
		parts = append(parts, LocalPartition{S: ds})
	}

	s := NewPartitionedStore(parts, fed.HashSeed)
	s.ods = ods
	s.live = n
	s.theta = fed.Theta
	s.finalized = true
	s.snapDir = dir
	s.fingerprint = meta.Fingerprint
	if fed.Rebalanced != nil {
		s.rebalanced = &RebalanceInfo{
			FromPartitions: fed.Rebalanced.FromPartitions,
			FromSeed:       fed.Rebalanced.FromSeed,
		}
	}
	// The manifest carries the filters SavePartitioned computed from
	// these exact member snapshots (the fingerprints checked above pin
	// them), so no refetch fan-out is needed.
	s.routing = make([]*memberRouting, len(parts))
	for i, enc := range fed.RoutingFilters {
		s.routing[i] = newMemberRouting(decodeRoutingFilters(enc))
	}
	s.clearCaches()
	return s, nil
}
