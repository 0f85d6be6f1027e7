package od

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// buildFederation populates a PartitionedStore over the given member
// backends with copies of the ODs and finalizes it at theta.
func buildFederation(t *testing.T, ods []*OD, theta float64, backends ...Store) *PartitionedStore {
	t.Helper()
	parts := make([]Partition, len(backends))
	for i, b := range backends {
		parts[i] = LocalPartition{S: b}
	}
	fed := NewPartitionedStore(parts, 0)
	for _, o := range ods {
		cp := *o
		fed.Add(&cp)
	}
	fed.Finalize(theta)
	return fed
}

// mixedBackends returns n member backends alternating between the two
// single-node Store implementations, so federation tests cover
// heterogeneous members ("each partition itself any existing Store").
func mixedBackends(t *testing.T, n int) []Store {
	t.Helper()
	out := make([]Store, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = NewMemStore()
		} else {
			out[i] = NewDiskStore(t.TempDir())
		}
	}
	return out
}

// TestPartitionedStoreParity asserts that PartitionedStore answers
// every Store query bit-identically to MemStore on the generated CD and
// movie datasets, for 1 and 3 partitions over heterogeneous member
// backends.
func TestPartitionedStoreParity(t *testing.T) {
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
		for _, nParts := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/partitions=%d", ds.name, nParts), func(t *testing.T) {
				mem := NewMemStore()
				for _, o := range ds.ods {
					cp := *o
					mem.Add(&cp)
				}
				mem.Finalize(ds.theta)
				fed := buildFederation(t, ds.ods, ds.theta, mixedBackends(t, nParts)...)
				defer fed.Close()

				if mem.Size() != fed.Size() || mem.Theta() != fed.Theta() {
					t.Fatalf("size/theta diverge: %d/%v vs %d/%v",
						mem.Size(), mem.Theta(), fed.Size(), fed.Theta())
				}
				normStats := func(sts []TypeStats) []TypeStats {
					for i := range sts {
						sts[i].Indexed = false
					}
					return sts
				}
				if got, want := normStats(fed.Stats()), normStats(mem.Stats()); !reflect.DeepEqual(got, want) {
					t.Errorf("Stats diverge:\nmem: %+v\nfed: %+v", want, got)
				}
				for id := int32(0); id < int32(mem.Size()); id++ {
					if got, want := fed.Neighbors(id), mem.Neighbors(id); !equalIDs(got, want) {
						t.Fatalf("Neighbors(%d) diverge: %v vs %v", id, got, want)
					}
				}
				for _, o := range mem.ODs() {
					for _, tup := range o.NonEmptyTuples() {
						if got, want := fed.ObjectsWithExact(tup), mem.ObjectsWithExact(tup); !equalIDs(got, want) {
							t.Fatalf("ObjectsWithExact(%v) diverge: %v vs %v", tup, got, want)
						}
						vm, vf := mem.SimilarValues(tup), fed.SimilarValues(tup)
						if !equalMatches(vm, vf) {
							t.Fatalf("SimilarValues(%v) diverge:\nmem: %v\nfed: %v", tup, vm, vf)
						}
						if gm, gf := mem.SoftIDFSingle(tup), fed.SoftIDFSingle(tup); gm != gf {
							t.Fatalf("SoftIDFSingle(%v) diverge: %v vs %v", tup, gm, gf)
						}
						for _, m := range vm {
							other := Tuple{Value: m.Value, Type: tup.Type}
							if gm, gf := mem.SoftIDF(tup, other), fed.SoftIDF(tup, other); gm != gf {
								t.Fatalf("SoftIDF(%v, %v) diverge: %v vs %v", tup, other, gm, gf)
							}
						}
					}
				}
			})
		}
	}
}

// faultyPartition wraps a Partition and fails a chosen operation after
// a countdown, simulating a member that dies mid-workload.
type faultyPartition struct {
	Partition
	failOp    string
	countdown int
}

var errInjected = errors.New("injected partition outage")

func (f *faultyPartition) maybeFail() error {
	f.countdown--
	if f.countdown <= 0 {
		return errInjected
	}
	return nil
}

func (f *faultyPartition) ObjectsWithExact(t Tuple) ([]int32, error) {
	if f.failOp == "exact" {
		if err := f.maybeFail(); err != nil {
			return nil, err
		}
	}
	return f.Partition.ObjectsWithExact(t)
}

func (f *faultyPartition) SimilarValues(t Tuple) ([]ValueMatch, error) {
	if f.failOp == "similar" {
		if err := f.maybeFail(); err != nil {
			return nil, err
		}
	}
	return f.Partition.SimilarValues(t)
}

func (f *faultyPartition) AddAfterFinalize(ods []*OD) error {
	if f.failOp == "add" {
		if err := f.maybeFail(); err != nil {
			return err
		}
	}
	return f.Partition.AddAfterFinalize(ods)
}

func (f *faultyPartition) Finalize(theta float64) error {
	if f.failOp == "finalize" {
		if err := f.maybeFail(); err != nil {
			return err
		}
	}
	return f.Partition.Finalize(theta)
}

// recoverPartitionError runs fn and returns the typed partition error
// it panics with, or nil when it completes.
func recoverPartitionError(fn func()) (pe *PartitionUnavailableError) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if pe, ok = r.(*PartitionUnavailableError); !ok {
				panic(r)
			}
		}
	}()
	fn()
	return nil
}

// TestPartitionedStoreQueryFault pins the failure contract: a member
// erroring mid-query surfaces as a typed PartitionUnavailableError (a
// panic, since Store queries have no error return), the federation is
// poisoned, and every later operation re-raises the same failure —
// never a partial answer.
func TestPartitionedStoreQueryFault(t *testing.T) {
	ods := cdODs(40, 5)
	faulty := &faultyPartition{Partition: LocalPartition{S: NewMemStore()}, failOp: "similar", countdown: 3}
	fed := NewPartitionedStore([]Partition{LocalPartition{S: NewMemStore()}, faulty, LocalPartition{S: NewMemStore()}}, 0)
	for _, o := range ods {
		cp := *o
		fed.Add(&cp)
	}
	fed.Finalize(0.15)

	var pe *PartitionUnavailableError
	for _, o := range fed.ODs() {
		for _, tup := range o.NonEmptyTuples() {
			if pe = recoverPartitionError(func() { fed.SimilarValues(tup) }); pe != nil {
				break
			}
		}
		if pe != nil {
			break
		}
	}
	if pe == nil {
		t.Fatal("faulty member never surfaced an error")
	}
	if pe.Partition != 1 || !errors.Is(pe, errInjected) {
		t.Fatalf("error = %v, want partition 1 wrapping the injected outage", pe)
	}
	// Poisoned: every path re-raises, mutations included.
	if got := recoverPartitionError(func() { fed.Neighbors(0) }); got == nil {
		t.Fatal("poisoned federation answered Neighbors")
	}
	if got := recoverPartitionError(func() { fed.ObjectsWithExact(Tuple{Value: "x", Type: "ARTIST"}) }); got == nil {
		t.Fatal("poisoned federation answered ObjectsWithExact")
	}
	if err := fed.AddAfterFinalize([]*OD{{Object: "/x"}}); err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("poisoned federation accepted a mutation: %v", err)
	}
	if err := fed.Remove([]int32{0}); err == nil {
		t.Fatal("poisoned federation accepted a removal")
	}
}

// TestPartitionedStoreMutationFault pins the mutation-failure side: a
// member failing AddAfterFinalize returns the typed error and poisons
// the federation, so the divergence can never be observed by queries.
func TestPartitionedStoreMutationFault(t *testing.T) {
	ods := cdODs(20, 6)
	faulty := &faultyPartition{Partition: LocalPartition{S: NewMemStore()}, failOp: "add", countdown: 1}
	fed := NewPartitionedStore([]Partition{LocalPartition{S: NewMemStore()}, faulty}, 0)
	for _, o := range ods {
		cp := *o
		fed.Add(&cp)
	}
	fed.Finalize(0.15)

	err := fed.AddAfterFinalize(copyODs(cdODs(2, 7)))
	var pe *PartitionUnavailableError
	if !errors.As(err, &pe) || pe.Partition != 1 {
		t.Fatalf("AddAfterFinalize error = %v, want PartitionUnavailableError for member 1", err)
	}
	if got := recoverPartitionError(func() { fed.SimilarValues(Tuple{Value: "x", Type: "ARTIST"}) }); got == nil {
		t.Fatal("queries still answered after a failed mutation batch")
	}
}

// TestPartitionedStoreFinalizeFault pins the build-phase failure: a
// member dying during the Finalize fan-out surfaces as the typed error
// and the federation never serves.
func TestPartitionedStoreFinalizeFault(t *testing.T) {
	ods := cdODs(10, 8)
	faulty := &faultyPartition{Partition: LocalPartition{S: NewMemStore()}, failOp: "finalize", countdown: 1}
	fed := NewPartitionedStore([]Partition{LocalPartition{S: NewMemStore()}, faulty}, 0)
	for _, o := range ods {
		cp := *o
		fed.Add(&cp)
	}
	pe := recoverPartitionError(func() { fed.Finalize(0.15) })
	if pe == nil || pe.Partition != 1 || pe.Op != "Finalize" {
		t.Fatalf("Finalize fault = %v, want typed error for member 1", pe)
	}
}
