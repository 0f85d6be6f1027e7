package od

import "fmt"

// This file is the replication side of the federation: every partition
// may carry extra read members ("replicas") holding bit-identical
// state. Reads fail over inside the group (partition.go's callRead);
// writes fan out to every group member and stay fail-stop, so the
// group never forks. AttachReplicas is the only way replicas join —
// either before Finalize (they ride the build fan-out) or after it
// (they hydrate by streaming the group's shadows through ExportODs).

// replicaHydrateChunk bounds one hydration export window — the same
// scale the wire transport's frame limit expects.
const replicaHydrateChunk = 2048

// AttachReplicas registers replica members, one group per partition
// (replicas[i] joins partition i; empty groups are allowed). Called
// before Finalize, the replicas simply ride the build fan-out. Called
// on a finalized federation, each replica hydrates first: the group's
// shadow stream replays onto it — live shadows in ID order with
// placeholder objects at removed slots, Finalize at the federation's
// θtuple, then removal of the placeholders — which the backend parity
// contract guarantees lands bit-identical to the group's state. Only
// after every replica hydrates and verifies does the group layout
// commit; a failure mid-hydration leaves the federation serving
// exactly as before (the new replicas are simply not attached).
func (s *PartitionedStore) AttachReplicas(replicas [][]Partition) error {
	if len(replicas) != len(s.parts) {
		return fmt.Errorf("od: %d replica groups for %d partitions", len(replicas), len(s.parts))
	}
	if s.replicas != nil {
		return fmt.Errorf("od: replicas already attached")
	}
	if e := s.failed.Load(); e != nil {
		return e
	}
	if s.finalized {
		for i := range replicas {
			for _, r := range replicas[i] {
				if err := s.hydrateReplica(i, r); err != nil {
					return fmt.Errorf("od: hydrate replica of partition %d: %w", i, err)
				}
			}
		}
	}
	s.replicas = replicas
	s.resetHealth()
	return nil
}

// hydrateReplica replays the federation's state onto one fresh,
// build-phase replica of partition i by streaming the group's shadows
// through ExportODs. The ID space may carry holes (removed objects);
// the replay ships an empty placeholder at each hole so backend-
// assigned IDs stay aligned, then removes the placeholders after
// Finalize — the same build-then-mutate sequence every group member's
// state is equivalent to.
func (s *PartitionedStore) hydrateReplica(i int, r Partition) error {
	span := int32(len(s.ods))
	var holes []int32
	for lo := int32(0); lo < span; lo += replicaHydrateChunk {
		hi := lo + replicaHydrateChunk
		if hi > span {
			hi = span
		}
		var exported []*OD
		if err := s.callRead("AttachReplicas", i, func(p Partition) error {
			var err error
			exported, err = p.ExportODs(lo, hi)
			return err
		}); err != nil {
			return err
		}
		if int32(len(exported)) != hi-lo {
			return fmt.Errorf("partition %d exported %d of %d shadows", i, len(exported), hi-lo)
		}
		adds := make([]*OD, 0, len(exported))
		for j, e := range exported {
			id := lo + int32(j)
			if e == nil {
				if s.ods[id] != nil {
					return fmt.Errorf("partition %d has no shadow for live object %d — group state diverged", i, id)
				}
				holes = append(holes, id)
				adds = append(adds, &OD{})
				continue
			}
			adds = append(adds, &OD{Object: e.Object, Source: e.Source, Tuples: e.Tuples})
		}
		if err := r.AddODs(adds); err != nil {
			return err
		}
	}
	if err := r.Finalize(s.theta); err != nil {
		return err
	}
	if len(holes) > 0 {
		if err := r.Remove(holes); err != nil {
			return err
		}
	}
	info, err := r.Info()
	if err != nil {
		return err
	}
	if info.Size != s.live || info.Theta != s.theta || info.Span != span {
		return fmt.Errorf("replica hydrated to %d objects (span %d) at θ=%v; group holds %d (span %d) at θ=%v",
			info.Size, info.Span, info.Theta, s.live, span, s.theta)
	}
	return nil
}
