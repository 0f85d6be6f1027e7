package od

import (
	"fmt"
	"sync"
)

// This file is segment-level rebalancing: moving a finalized
// federation to a new partition count and/or routing seed by streaming
// each member's postings to their new owners, member-to-member through
// the Partition interface — never re-ingesting the corpus. The
// coordinator drives windows of the ID space: every old member exports
// its shadows for the window (ExportODs), the coordinator re-routes
// each tuple by the new (seed, count) hash and ships the merged
// shadows to the new members, and the new coordinator directory copies
// the old one with removed slots compacted away. The result is
// bit-identical to a fresh build at the new layout: member indexes are
// value-set-keyed (tuple grouping order cannot show through sorted
// postings), and the coordinator objects are the originals, tuple
// order and all.

// RebalanceInfo records the layout a rebalanced federation was
// streamed out of — provenance the federation manifest carries.
type RebalanceInfo struct {
	// FromPartitions is the source federation's partition count.
	FromPartitions int
	// FromSeed is the source federation's routing hash seed.
	FromSeed uint32
}

// rebalanceChunk bounds one export window of the ID space.
const rebalanceChunk = 2048

// Rebalance streams this federation's postings into a new federation
// over the given members at the given routing seed. The members must
// be empty, build-phase stores; the source federation must be
// finalized and healthy, and keeps serving reads untouched (exports go
// through the replica-failover read path). The returned federation is
// finalized, verified member-by-member, and stamped with the source
// layout (RebalancedFrom); removed slots compact away, so its ID space
// is dense like a freshly saved snapshot's. Replicas do not carry
// over — attach fresh ones to the new federation.
func (s *PartitionedStore) Rebalance(parts []Partition, seed uint32) (*PartitionedStore, error) {
	s.mustBeFinal()
	if e := s.failed.Load(); e != nil {
		return nil, e
	}
	ns := NewPartitionedStore(parts, seed)
	ns.rebalanced = &RebalanceInfo{FromPartitions: len(s.parts), FromSeed: s.seed}
	ns.fingerprint = s.fingerprint

	span := int32(len(s.ods))
	for lo := int32(0); lo < span; lo += rebalanceChunk {
		hi := lo + rebalanceChunk
		if hi > span {
			hi = span
		}
		exports := make([][]*OD, len(s.parts))
		if err := s.readFanOut("Rebalance", func(i int, p Partition) error {
			out, err := p.ExportODs(lo, hi)
			if err != nil {
				return err
			}
			if int32(len(out)) != hi-lo {
				return fmt.Errorf("exported %d of %d shadows", len(out), hi-lo)
			}
			exports[i] = out
			return nil
		}); err != nil {
			return nil, err
		}

		shadows := make([][]*OD, len(parts))
		for j := int32(0); j < hi-lo; j++ {
			old := s.ods[lo+j]
			if old == nil {
				for i := range exports {
					if exports[i][j] != nil {
						return nil, fmt.Errorf("od: rebalance: partition %d still holds a shadow of removed object %d — federation state diverged", i, lo+j)
					}
				}
				continue
			}
			owned := make([][]Tuple, len(parts))
			for i := range exports {
				e := exports[i][j]
				if e == nil {
					return nil, fmt.Errorf("od: rebalance: partition %d has no shadow for live object %d — federation state diverged", i, lo+j)
				}
				for _, t := range e.Tuples {
					k := partitionOf(t.Type, t.Value, seed, len(parts))
					owned[k] = append(owned[k], t)
				}
			}
			// The new coordinator object is the old one, re-IDed into the
			// compacted space — tuple order, empty-value tuples and all, so
			// the compare stage reads exactly what a fresh build would hold.
			co := *old
			co.ID = int32(len(ns.ods))
			ns.ods = append(ns.ods, &co)
			for k := range shadows {
				shadows[k] = append(shadows[k], &OD{Object: old.Object, Source: old.Source, Tuples: owned[k]})
			}
		}

		var wg sync.WaitGroup
		errs := make([]error, len(parts))
		for k := range parts {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				errs[k] = parts[k].AddODs(shadows[k])
			}(k)
		}
		wg.Wait()
		for k, err := range errs {
			if err != nil {
				return nil, ns.setFailed(&PartitionUnavailableError{Partition: k, Op: "Rebalance", Err: err})
			}
		}
	}

	ns.live = len(ns.ods)
	ns.theta = s.theta
	ns.finalized = true
	if err := ns.writeFanOut("Rebalance", func(k, m int, p Partition) error {
		if err := p.Finalize(s.theta); err != nil {
			return err
		}
		info, err := p.Info()
		if err != nil {
			return err
		}
		if info.Size != ns.live || info.Theta != s.theta {
			return fmt.Errorf("member finalized %d objects at θ=%v, rebalance expects %d at θ=%v",
				info.Size, info.Theta, ns.live, s.theta)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := ns.initRouting(); err != nil {
		return nil, err
	}
	ns.clearCaches()
	return ns, nil
}
