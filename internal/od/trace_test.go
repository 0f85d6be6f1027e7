package od

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/od/odcodec"
)

// traceFixture builds a deterministic TraceSet over a store: survival
// drops every fifth live slot (a stand-in for filter pruning), each
// adjacent surviving pair gets a distinct similarity trace, and each
// surviving slot a one-step filter trace.
func traceFixture(s Store, fp string) *TraceSet {
	span := storeSpan(s)
	live := aliveFunc(s)
	ts := &TraceSet{
		Fingerprint: fp,
		Size:        s.Size(),
		Alive:       make([]bool, span),
		Pairs:       map[int64]PairTrace{},
		Filter:      make([][]FilterStep, span),
	}
	nthLive := 0
	var survivors []int32
	for id := int32(0); id < int32(span); id++ {
		if !live(id) {
			continue
		}
		nthLive++
		if nthLive%5 == 0 {
			continue // "pruned": live but not a survivor
		}
		ts.Alive[id] = true
		ts.Filter[id] = []FilterStep{{Shared: true, Union: id + 1}}
		survivors = append(survivors, id)
	}
	for k := 1; k < len(survivors); k++ {
		i, j := survivors[k-1], survivors[k]
		ts.Pairs[int64(i)<<32|int64(uint32(j))] = PairTrace{
			SimU: []int32{j + 2, j + 3},
			ConU: []int32{j + 4},
		}
	}
	return ts
}

func TestTracesRoundTripDiskIdentity(t *testing.T) {
	dir := t.TempDir()
	ds := NewDiskStore(dir)
	for _, o := range cdODs(30, 11) {
		ds.Add(o)
	}
	ds.Finalize(0.15)
	if err := Save(dir, ds, SnapshotMeta{Fingerprint: "fp-a"}); err != nil {
		t.Fatal(err)
	}
	want := traceFixture(ds, "fp-a")
	if _, err := SaveTraces(dir, ds, want); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := LoadTraces(re)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("LoadTraces returned no trace set")
	}
	if got.Fingerprint != "fp-a" || got.Size != want.Size {
		t.Fatalf("header = %q/%d, want %q/%d", got.Fingerprint, got.Size, "fp-a", want.Size)
	}
	if !reflect.DeepEqual(got.Alive, want.Alive) || !reflect.DeepEqual(got.Pairs, want.Pairs) {
		t.Fatal("survival or pair traces diverged across the round trip")
	}
	if !reflect.DeepEqual(got.Filter, want.Filter) {
		t.Fatal("filter traces diverged across the round trip")
	}
}

// TestAppendTracesChain pins the append path end to end on an identity
// DiskStore: each AppendTraces call adds one patch frame holding only
// the changes its TraceUpdate lists, LoadTraces returns exactly the new
// state and the chain shape the writer reported (the chain and a whole
// rewrite are indistinguishable to readers), a batch that changed
// nothing writes nothing, the frame that would make the chain
// odcodec.MaxTraceFrames long rewrites it as one frame instead, and a
// chain the file no longer ends in is rewritten, never appended to.
func TestAppendTracesChain(t *testing.T) {
	dir := t.TempDir()
	ds := NewDiskStore(dir)
	for _, o := range cdODs(120, 11) {
		ds.Add(o)
	}
	ds.Finalize(0.15)
	if err := Save(dir, ds, SnapshotMeta{Fingerprint: "fp-0"}); err != nil {
		t.Fatal(err)
	}
	cur := traceFixture(ds, "fp-0")
	chain, err := SaveTraces(dir, ds, cur)
	if err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, odcodec.TraceFile)
	frames := func() int {
		t.Helper()
		_, info, err := odcodec.ReadTraceChain(dir)
		if err != nil {
			t.Fatal(err)
		}
		return info.Frames
	}
	assertSame := func(ctx string, want *TraceSet, chain TraceChain) {
		t.Helper()
		got, err := LoadTraces(ds)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if got == nil {
			t.Fatalf("%s: no traces loaded", ctx)
		}
		if got.Fingerprint != want.Fingerprint || got.Size != want.Size {
			t.Fatalf("%s: header %q/%d, want %q/%d", ctx, got.Fingerprint, got.Size, want.Fingerprint, want.Size)
		}
		if !reflect.DeepEqual(got.Alive, want.Alive) || !reflect.DeepEqual(got.Pairs, want.Pairs) || !reflect.DeepEqual(got.Filter, want.Filter) {
			t.Fatalf("%s: loaded traces diverge from the appended state", ctx)
		}
		if got.Chain != chain {
			t.Fatalf("%s: loaded chain %+v, the writer reported %+v", ctx, got.Chain, chain)
		}
	}
	if chain.Frames != 1 || frames() != 1 {
		t.Fatalf("fresh trace has %d frames (writer reported %d)", frames(), chain.Frames)
	}
	assertSame("fresh", cur, chain)

	keys := slices.Sorted(maps.Keys(cur.Pairs))
	// step n derives the next state from cur the way an update batch
	// does — one pair dropped, one re-scored, one filter slot cleared —
	// and lists exactly those changes.
	step := func(n int) (*TraceSet, *TraceUpdate) {
		next := &TraceSet{
			Fingerprint: fmt.Sprintf("fp-%d", n),
			Size:        cur.Size,
			Alive:       cur.Alive,
			Pairs:       maps.Clone(cur.Pairs),
			Filter:      slices.Clone(cur.Filter),
		}
		up := &TraceUpdate{Prev: cur, Cur: next}
		if k := keys[n%len(keys)]; next.Pairs[k].SimU != nil {
			delete(next.Pairs, k)
			up.Dropped = append(up.Dropped, k)
		}
		if k := keys[(n+1)%len(keys)]; next.Pairs[k].SimU != nil {
			tr := next.Pairs[k]
			next.Pairs[k] = PairTrace{SimU: append([]int32{int32(n) + 100}, tr.SimU...), ConU: tr.ConU}
			up.Rescored = append(up.Rescored, k)
		}
		for id, steps := range next.Filter {
			if steps != nil {
				next.Filter[id] = nil
				up.Refiltered = append(up.Refiltered, int32(id))
				break
			}
		}
		return next, up
	}

	for n := 1; n < odcodec.MaxTraceFrames-1; n++ {
		next, up := step(n)
		if chain, err = AppendTraces(dir, ds, chain, up); err != nil {
			t.Fatal(err)
		}
		if got := frames(); got != n+1 || chain.Frames != n+1 {
			t.Fatalf("after append %d the chain has %d frames (writer reported %d), want %d", n, got, chain.Frames, n+1)
		}
		assertSame(fmt.Sprintf("chain of %d frames", n+1), next, chain)
		cur = next
	}

	// A batch that changed nothing writes nothing, however long the
	// chain.
	before, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	same, err := AppendTraces(dir, ds, chain, &TraceUpdate{Prev: cur, Cur: cur})
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if same != chain || !bytes.Equal(before, after) {
		t.Fatal("an unchanged state was written to the chain")
	}

	// The frame that would make the chain odcodec.MaxTraceFrames long
	// rewrites it as one frame instead.
	next, up := step(odcodec.MaxTraceFrames)
	if chain, err = AppendTraces(dir, ds, chain, up); err != nil {
		t.Fatal(err)
	}
	if got := frames(); got != 1 || chain.Frames != 1 {
		t.Fatalf("a chain of %d frames grew to %d instead of being rewritten", odcodec.MaxTraceFrames-1, got)
	}
	assertSame("rewritten", next, chain)
	cur = next

	// A chain the file no longer ends in — rewritten behind the
	// caller's back — is rewritten too, never appended to.
	stale := chain
	other := &TraceSet{Fingerprint: "fp-other", Size: cur.Size, Alive: cur.Alive, Pairs: cur.Pairs, Filter: cur.Filter}
	if _, err := SaveTraces(dir, ds, other); err != nil {
		t.Fatal(err)
	}
	next, up = step(odcodec.MaxTraceFrames + 1)
	if chain, err = AppendTraces(dir, ds, stale, up); err != nil {
		t.Fatal(err)
	}
	if got := frames(); got != 1 || chain.Frames != 1 {
		t.Fatalf("appending to a stale chain left %d frames, want a one-frame rewrite", got)
	}
	assertSame("stale chain rewritten", next, chain)
	ds.Close()
}

// TestAppendTracesForeignBackend pins the fallback: a backend that is
// not the directory's own DiskStore always takes the whole-rewrite
// path, chains never form.
func TestAppendTracesForeignBackend(t *testing.T) {
	dir := t.TempDir()
	ms := NewMemStore()
	for _, o := range cdODs(20, 5) {
		ms.Add(o)
	}
	ms.Finalize(0.15)
	if err := Save(dir, ms, SnapshotMeta{Fingerprint: "fp-m"}); err != nil {
		t.Fatal(err)
	}
	var chain TraceChain
	prev := traceFixture(ms, "fp-m")
	for _, fp := range []string{"fp-m", "fp-m2"} {
		cur := traceFixture(ms, fp)
		var err error
		if chain, err = AppendTraces(dir, ms, chain, &TraceUpdate{Prev: prev, Cur: cur}); err != nil {
			t.Fatal(err)
		}
		_, info, err := odcodec.ReadTraceChain(dir)
		if err != nil {
			t.Fatal(err)
		}
		if info.Frames != 1 || chain.Frames != 1 {
			t.Fatalf("foreign backend chained %d frames (writer reported %d)", info.Frames, chain.Frames)
		}
		prev = cur
	}
	re, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := LoadTraces(re)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Fingerprint != "fp-m2" {
		t.Fatalf("loaded traces %+v, want the last rewrite (fp-m2)", got)
	}
}

// TestTracesCompactOnExport pins the remap contract: a mutated MemStore
// exports compacted, and the trace segment compacts with the same map,
// so the reopened DiskStore's IDs line up with the loaded traces.
func TestTracesCompactOnExport(t *testing.T) {
	initial, batch2, batch3, remove, liveOf := mutableFixture()
	ms := NewMemStore()
	for _, o := range copyODs(initial) {
		ms.Add(o)
	}
	ms.Finalize(0.15)
	mutationScript(t, ms, batch2, batch3, remove)

	want := traceFixture(ms, "fp-b")
	dir := t.TempDir()
	if err := Save(dir, ms, SnapshotMeta{Fingerprint: "fp-b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveTraces(dir, ms, want); err != nil {
		t.Fatal(err)
	}

	// The export remaps old live ID (k-th live in ascending order) to k.
	remap := map[int32]int32{}
	for i, o := range liveOf(ms) {
		remap[o.ID] = int32(i)
	}

	re, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := LoadTraces(re)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("LoadTraces returned no trace set")
	}
	if len(got.Alive) != re.Size() {
		t.Fatalf("loaded span %d, want compacted %d", len(got.Alive), re.Size())
	}
	for oldID, newID := range remap {
		if got.Alive[newID] != want.Alive[oldID] {
			t.Fatalf("survival for old id %d (new %d) diverged", oldID, newID)
		}
		if !reflect.DeepEqual(got.Filter[newID], want.Filter[oldID]) {
			t.Fatalf("filter trace for old id %d (new %d) diverged", oldID, newID)
		}
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("loaded %d pair traces, want %d", len(got.Pairs), len(want.Pairs))
	}
	for key, tr := range want.Pairs {
		i, j := int32(key>>32), int32(uint32(key))
		newKey := int64(remap[i])<<32 | int64(uint32(remap[j]))
		if !reflect.DeepEqual(got.Pairs[newKey], tr) {
			t.Fatalf("pair (%d,%d) trace missing or diverged under remapped key (%d,%d)",
				i, j, remap[i], remap[j])
		}
	}
}

func TestLoadTracesRejections(t *testing.T) {
	build := func(t *testing.T) (string, *DiskStore) {
		dir := t.TempDir()
		ds := NewDiskStore(dir)
		for _, o := range cdODs(20, 7) {
			ds.Add(o)
		}
		ds.Finalize(0.15)
		if err := Save(dir, ds, SnapshotMeta{Fingerprint: "fp-c"}); err != nil {
			t.Fatal(err)
		}
		if _, err := SaveTraces(dir, ds, traceFixture(ds, "fp-c")); err != nil {
			t.Fatal(err)
		}
		ds.Close()
		re, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { re.Close() })
		return dir, re
	}
	extraODs := func(seed int64) []*OD {
		extra := cdODs(2, seed)
		for _, o := range extra {
			o.Object = "/extra" + o.Object
		}
		return extra
	}
	// rejectedForSequence requires the rejection to name the delta
	// sequence, not some other mismatch the same fixture might hit.
	rejectedForSequence := func(t *testing.T, s Store, what string) {
		t.Helper()
		if _, err := LoadTraces(s); err == nil || !strings.Contains(err.Error(), "delta sequence") {
			t.Fatalf("trace segment for %s: LoadTraces err = %v, want a delta-sequence rejection", what, err)
		}
	}

	t.Run("stale digest", func(t *testing.T) {
		dir, re := build(t)
		// Rewrite the snapshot without re-persisting traces: the segment
		// stays on disk but its digest no longer matches, so it must be
		// rejected, not served.
		if err := Save(dir, re, SnapshotMeta{Fingerprint: "fp-c2"}); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, odcodec.TraceFile)); err != nil {
			t.Fatalf("re-saving the snapshot disturbed the trace segment (stat err %v)", err)
		}
		re2, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer re2.Close()
		if _, err := LoadTraces(re2); err == nil {
			t.Fatal("stale trace segment accepted")
		}
	})

	t.Run("corrupt segment", func(t *testing.T) {
		dir, re := build(t)
		path := filepath.Join(dir, odcodec.TraceFile)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xff
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadTraces(re); err == nil {
			t.Fatal("corrupt trace segment accepted")
		}
	})

	t.Run("mutated store", func(t *testing.T) {
		_, re := build(t)
		if err := re.AddAfterFinalize(extraODs(3)); err != nil {
			t.Fatal(err)
		}
		rejectedForSequence(t, re, "a store mutated after the trace")
	})

	t.Run("replayed deltas on reopen", func(t *testing.T) {
		dir, re := build(t)
		if err := re.AddAfterFinalize(extraODs(5)); err != nil {
			t.Fatal(err)
		}
		re.Close()
		re2, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer re2.Close()
		if !re2.Mutated() {
			t.Fatal("fixture bug: reopened store should carry replayed deltas")
		}
		rejectedForSequence(t, re2, "a store whose replayed deltas end past the trace")
	})

	t.Run("delta sequence mismatch", func(t *testing.T) {
		// Same manifest, same live state, a trace recorded at another
		// delta sequence: the sequence alone binds it, and it rejects.
		dir, re := build(t)
		raw, err := odcodec.ReadTrace(dir)
		if err != nil {
			t.Fatal(err)
		}
		f := traceFrame(raw, idPlan{}, raw.Size, nil, nil, nil)
		f.ManifestDigest, f.DeltaSeq = raw.Chain.ManifestDigest, raw.Chain.DeltaSeq+1
		if _, err := odcodec.WriteTraceFrame(dir, TraceChain{}, f); err != nil {
			t.Fatal(err)
		}
		rejectedForSequence(t, re, "another delta sequence")
	})

	t.Run("unmerged deltas at the recorded sequence", func(t *testing.T) {
		dir, re := build(t)
		if err := re.AddAfterFinalize(extraODs(5)); err != nil {
			t.Fatal(err)
		}
		want := traceFixture(re, "fp-e")
		if _, err := SaveTraces(dir, re, want); err != nil {
			t.Fatal(err)
		}
		re.Close()
		re2, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer re2.Close()
		if !re2.Mutated() {
			t.Fatal("fixture bug: reopened store should carry replayed deltas")
		}
		got, err := LoadTraces(re2)
		if err != nil || got == nil {
			t.Fatalf("trace recorded at the replayed delta sequence rejected: %v", err)
		}
		if !reflect.DeepEqual(got.Alive, want.Alive) || !reflect.DeepEqual(got.Pairs, want.Pairs) || !reflect.DeepEqual(got.Filter, want.Filter) {
			t.Fatal("traces over unmerged deltas diverged across the reopen")
		}
		if got.Chain.Frames != 1 || got.Chain.DeltaSeq != re2.DeltaSeq() {
			t.Fatalf("loaded chain %+v, want one frame at delta sequence %d", got.Chain, re2.DeltaSeq())
		}
	})

	t.Run("in-process backends have no segment", func(t *testing.T) {
		ms := NewMemStore()
		for _, o := range cdODs(5, 1) {
			ms.Add(o)
		}
		ms.Finalize(0.15)
		if ts, err := LoadTraces(ms); ts != nil || err != nil {
			t.Fatalf("LoadTraces(MemStore) = %v, %v; want nil, nil", ts, err)
		}
	})
}

// TestTracesPartitionedCoordinator pins that only a DiskStore restores
// replay traces: a segment saved next to a partitioned snapshot stays
// unread through the reopened federation, as does any in-process
// federation.
func TestTracesPartitionedCoordinator(t *testing.T) {
	parts := make([]Partition, 3)
	for i, b := range mixedBackends(t, 3) {
		parts[i] = LocalPartition{S: b}
	}
	ps := NewPartitionedStore(parts, 0)
	for _, o := range cdODs(24, 9) {
		ps.Add(o)
	}
	ps.Finalize(0.15)

	dir := t.TempDir()
	if err := SavePartitioned(dir, ps, SnapshotMeta{Fingerprint: "fp-d"}); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveTraces(dir, ps, traceFixture(ps, "fp-d")); err != nil {
		t.Fatal(err)
	}
	re, err := OpenPartitioned(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for name, s := range map[string]Store{"reopened": re, "in-process": ps} {
		if ts, err := LoadTraces(s); ts != nil || err != nil {
			t.Fatalf("LoadTraces(%s federation) = %v, %v; want nil, nil", name, ts, err)
		}
	}
}
