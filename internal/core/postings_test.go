package core_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dirty"
	"repro/internal/experiments"
	"repro/internal/heuristics"
	"repro/internal/od"
)

// exactCountingStore is a MemStore that counts the ObjectsWithExact
// calls made while counting is on.
type exactCountingStore struct {
	*od.MemStore
	on    *atomic.Bool
	calls *atomic.Int64
}

func (s exactCountingStore) ObjectsWithExact(t od.Tuple) []int32 {
	if s.on.Load() {
		s.calls.Add(1)
	}
	return s.MemStore.ObjectsWithExact(t)
}

// compareCounter is an Observer that switches counting on for the
// compare stage only.
type compareCounter struct{ on *atomic.Bool }

func (c compareCounter) StageStart(name string) { c.on.Store(name == core.StageCompare) }

func (c compareCounter) StageDone(core.StageStats) { c.on.Store(false) }

// TestComparePostingLookupsBounded is the gate on Step 5's posting
// rows: the compare stage asks the store for a tuple's postings at most
// once per run, so its ObjectsWithExact calls never exceed the number
// of non-empty tuples of the live objects — on a Detect and on an
// Update that adds a document and removes two objects. Looking the
// postings up per matched tuple pair instead costs up to two calls per
// match, some 30 000 per run on this corpus. One worker, so no two workers
// resolve the same row at once.
func TestComparePostingLookupsBounded(t *testing.T) {
	ds, err := experiments.BuildDataset1(150, 2005, dirty.Dataset1Params())
	if err != nil {
		t.Fatal(err)
	}
	h, err := heuristics.Experiment(1, heuristics.KClosestDescendants(6))
	if err != nil {
		t.Fatal(err)
	}
	var on atomic.Bool
	var calls atomic.Int64
	det, err := core.NewDetector(ds.Mapping, core.Config{
		Heuristic:   h,
		ThetaTuple:  experiments.ThetaTuple,
		ThetaCand:   experiments.ThetaCand,
		UseFilter:   true,
		Workers:     1,
		Incremental: true,
		Observer:    compareCounter{&on},
		NewStore: func() od.Store {
			return exactCountingStore{od.NewMemStore(), &on, &calls}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, res *core.Result) {
		t.Helper()
		ms := res.Store.(od.MutableStore)
		tuples := 0
		for id := int32(0); id < ms.IDSpan(); id++ {
			if o := res.Store.OD(id); o != nil {
				tuples += len(o.NonEmptyTuples())
			}
		}
		got := calls.Swap(0)
		t.Logf("%s: %d ObjectsWithExact calls in compare for %d comparisons, %d live non-empty tuples",
			step, got, res.Stats.Compared, tuples)
		if res.Stats.Compared == 0 {
			t.Fatalf("%s compared no pair; the bound would be vacuous", step)
		}
		if got > int64(tuples) {
			t.Errorf("%s: compare made %d ObjectsWithExact calls, more than the %d non-empty tuples of the live objects",
				step, got, tuples)
		}
	}
	res, err := det.Detect("DISC", core.Source{Doc: ds.Doc, Schema: ds.Schema})
	if err != nil {
		t.Fatal(err)
	}
	check("Detect", res)
	add := core.DocSource{Name: "update.xml", Doc: datagen.FreeDBToXML(datagen.FreeDB(12, 2030))}
	res, err = det.Update(res, core.UpdateBatch{Add: []core.SourceInput{add}, Remove: []int32{3, 10}})
	if err != nil {
		t.Fatal(err)
	}
	check("Update", res)
}
