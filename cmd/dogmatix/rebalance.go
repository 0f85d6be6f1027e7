package main

// `dogmatix rebalance` re-partitions a persisted federation without
// re-ingesting any document:
//
//	dogmatix rebalance -from DIR -to ROOT -partitions N [-hash-seed S]
//
// -from is either a federation snapshot directory (the output of a
// -store dist save) or a daemon -snapshot-root (its last committed
// generation is used). The source's members stream their live shadows
// to N fresh in-process members hashed under the new layout, the
// coordinator directory carries over object by object, and the result
// commits under -to as generation 1 of a fresh federation root — ready
// for `dogmatixd -store dist -snapshot-root ROOT`. The rebalanced
// federation is bit-identical to one built fresh at N partitions, and
// its manifest records the provenance (old partition count and seed).

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/api"
	"repro/internal/od"
)

// runRebalance implements `dogmatix rebalance`.
func runRebalance(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dogmatix rebalance", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		from       = fs.String("from", "", "source federation: a snapshot directory or a daemon -snapshot-root (required)")
		to         = fs.String("to", "", "destination federation root; must not already hold a committed snapshot (required)")
		partitions = fs.Int("partitions", 0, "partition count of the rebalanced federation (required)")
		hashSeed   = fs.Uint64("hash-seed", 0, "routing hash seed of the rebalanced federation")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("rebalance: unexpected arguments %v", fs.Args())
	}
	if *from == "" || *to == "" {
		return fmt.Errorf("rebalance: -from and -to are required")
	}
	if *partitions < 1 {
		return fmt.Errorf("rebalance: -partitions %d < 1", *partitions)
	}
	if *hashSeed > 1<<32-1 {
		return fmt.Errorf("rebalance: -hash-seed %d exceeds 32 bits", *hashSeed)
	}

	// A daemon -snapshot-root holds a CURRENT pointer; a bare snapshot
	// directory holds the federation manifest directly.
	var fed *od.PartitionedStore
	var err error
	if _, serr := os.Stat(filepath.Join(*from, "CURRENT")); serr == nil {
		_, fed, err = api.OpenFederationDir(*from)
	} else {
		fed, err = od.OpenPartitioned(*from)
	}
	if err != nil {
		return fmt.Errorf("rebalance: open source federation: %w", err)
	}
	defer fed.Close()

	parts := make([]od.Partition, *partitions)
	for i := range parts {
		parts[i] = od.LocalPartition{S: od.NewMemStore()}
	}
	ns, err := fed.Rebalance(parts, uint32(*hashSeed))
	if err != nil {
		return fmt.Errorf("rebalance: %w", err)
	}
	defer ns.Close()

	fdir, err := api.CommitFederation(*to, ns, od.SnapshotMeta{Fingerprint: ns.Fingerprint()})
	if err != nil {
		return fmt.Errorf("rebalance: commit: %w", err)
	}
	fmt.Fprintf(stdout, "rebalanced %d objects: %d partitions (seed %d) -> %d partitions (seed %d), committed %s\n",
		ns.Size(), fed.NumPartitions(), fed.HashSeed(), ns.NumPartitions(), ns.HashSeed(), fdir.Dir())
	return nil
}
