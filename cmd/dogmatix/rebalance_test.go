package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/od"
)

// rebalanceFixture builds a small corpus with cross-object duplicate
// values so the federations under comparison have non-trivial postings.
func rebalanceFixture() []*od.OD {
	ods := make([]*od.OD, 0, 30)
	for i := 0; i < 30; i++ {
		ods = append(ods, &od.OD{Object: fmt.Sprintf("/db/rec[%d]", i+1), Tuples: []od.Tuple{
			{Value: fmt.Sprintf("name-%03d", i%7), Name: "/db/rec/name", Type: "NAME"},
			{Value: fmt.Sprintf("%d", 1900+i%11), Name: "/db/rec/year", Type: "YEAR"},
		}})
	}
	return ods
}

const rebalanceTheta = 0.2

// buildRebalanceFed builds a fresh federation over the fixture at the
// given layout — the bit-identity reference for a rebalanced one.
func buildRebalanceFed(ods []*od.OD, n int, seed uint32) *od.PartitionedStore {
	parts := make([]od.Partition, n)
	for i := range parts {
		parts[i] = od.LocalPartition{S: od.NewMemStore()}
	}
	fed := od.NewPartitionedStore(parts, seed)
	for _, o := range ods {
		cp := *o
		fed.Add(&cp)
	}
	fed.Finalize(rebalanceTheta)
	return fed
}

// assertFedsAgree compares two federations query by query.
func assertFedsAgree(t *testing.T, name string, got, want *od.PartitionedStore) {
	t.Helper()
	if got.Size() != want.Size() || got.IDSpan() != want.IDSpan() {
		t.Fatalf("%s: size/span = %d/%d, want %d/%d", name, got.Size(), got.IDSpan(), want.Size(), want.IDSpan())
	}
	for id := int32(0); id < want.IDSpan(); id++ {
		if got.Alive(id) != want.Alive(id) {
			t.Fatalf("%s: liveness of %d diverges", name, id)
		}
		if !want.Alive(id) {
			continue
		}
		for _, tup := range want.OD(id).NonEmptyTuples() {
			if !reflect.DeepEqual(got.ObjectsWithExact(tup), want.ObjectsWithExact(tup)) {
				t.Fatalf("%s: ObjectsWithExact(%v) diverges", name, tup)
			}
			if !reflect.DeepEqual(got.SimilarValues(tup), want.SimilarValues(tup)) {
				t.Fatalf("%s: SimilarValues(%v) diverges", name, tup)
			}
		}
	}
}

// TestRunRebalance drives `dogmatix rebalance` end to end: a persisted
// 3-partition federation streams to 5 partitions under a new seed, the
// committed root reopens bit-identical to a fresh 5-partition build
// with the provenance stamped, and a second hop reads the committed
// root through its CURRENT pointer (the daemon -snapshot-root layout).
func TestRunRebalance(t *testing.T) {
	ods := rebalanceFixture()
	src := buildRebalanceFed(ods, 3, 0)
	srcDir := t.TempDir()
	if err := od.SavePartitioned(srcDir, src, od.SnapshotMeta{Fingerprint: "cli-fixture"}); err != nil {
		t.Fatal(err)
	}
	src.Close()

	root := filepath.Join(t.TempDir(), "fed")
	var out, errOut bytes.Buffer
	if err := runRebalance([]string{"-from", srcDir, "-to", root, "-partitions", "5", "-hash-seed", "11"}, &out, &errOut); err != nil {
		t.Fatalf("rebalance 3->5: %v\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "3 partitions (seed 0) -> 5 partitions (seed 11)") {
		t.Fatalf("rebalance report: %s", out.String())
	}

	_, fed, err := api.OpenFederationDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	if fed.NumPartitions() != 5 || fed.HashSeed() != 11 {
		t.Fatalf("reopened layout: %d partitions seed %d", fed.NumPartitions(), fed.HashSeed())
	}
	if ri := fed.RebalancedFrom(); ri == nil || ri.FromPartitions != 3 || ri.FromSeed != 0 {
		t.Fatalf("reopened provenance = %+v, want {3 0}", ri)
	}
	fresh := buildRebalanceFed(ods, 5, 11)
	defer fresh.Close()
	assertFedsAgree(t, "cli-3to5", fed, fresh)

	// Second hop: -from is now a federation root with a CURRENT
	// pointer, exercising the daemon-snapshot-root branch.
	root2 := filepath.Join(t.TempDir(), "fed2")
	out.Reset()
	if err := runRebalance([]string{"-from", root, "-to", root2, "-partitions", "2"}, &out, &errOut); err != nil {
		t.Fatalf("rebalance 5->2: %v\n%s", err, errOut.String())
	}
	_, fed2, err := api.OpenFederationDir(root2)
	if err != nil {
		t.Fatal(err)
	}
	defer fed2.Close()
	if ri := fed2.RebalancedFrom(); ri == nil || ri.FromPartitions != 5 || ri.FromSeed != 11 {
		t.Fatalf("chained provenance = %+v, want {5 11}", ri)
	}
	fresh2 := buildRebalanceFed(ods, 2, 0)
	defer fresh2.Close()
	assertFedsAgree(t, "cli-5to2", fed2, fresh2)
}

// TestRunRebalanceValidation pins the subcommand's argument checks.
func TestRunRebalanceValidation(t *testing.T) {
	var out, errOut bytes.Buffer
	srcDir := t.TempDir()
	for name, args := range map[string][]string{
		"missing from/to":   {"-partitions", "2"},
		"missing partition": {"-from", srcDir, "-to", filepath.Join(srcDir, "out")},
		"zero partitions":   {"-from", srcDir, "-to", filepath.Join(srcDir, "out"), "-partitions", "0"},
		"wide hash seed":    {"-from", srcDir, "-to", filepath.Join(srcDir, "out"), "-partitions", "2", "-hash-seed", "4294967296"},
		"stray operand":     {"-from", srcDir, "-to", filepath.Join(srcDir, "out"), "-partitions", "2", "extra"},
		"empty source":      {"-from", filepath.Join(srcDir, "void"), "-to", filepath.Join(srcDir, "out"), "-partitions", "2"},
		"spill-ods removed": {"-from", srcDir, "-to", filepath.Join(srcDir, "out"), "-partitions", "2", "-spill-ods"},
	} {
		if err := runRebalance(args, &out, &errOut); err == nil {
			t.Errorf("%s: runRebalance accepted %v", name, args)
		}
	}
}
