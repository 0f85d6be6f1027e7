package od

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/od/odcodec"
)

// mutableBackends builds one instance of every MutableStore backend over
// copies of the initial ODs, finalized at theta — the two single-node
// stores plus a three-member federation over heterogeneous backends, so
// every mutable-store gate also holds the distributed layer to the
// fresh-build reference.
func mutableBackends(t *testing.T, initial []*OD, theta float64) map[string]MutableStore {
	t.Helper()
	disk := NewDiskStore(t.TempDir())
	parts := make([]Partition, 3)
	for i, b := range mixedBackends(t, 3) {
		parts[i] = LocalPartition{S: b}
	}
	out := map[string]MutableStore{
		"mem": NewMemStore(), "disk": disk,
		"dist": NewPartitionedStore(parts, 0),
	}
	for _, s := range out {
		for _, o := range initial {
			cp := *o
			s.Add(&cp)
		}
		s.Finalize(theta)
	}
	return out
}

// copyODs deep-copies OD headers so each backend owns its IDs.
func copyODs(ods []*OD) []*OD {
	out := make([]*OD, len(ods))
	for i, o := range ods {
		cp := *o
		out[i] = &cp
	}
	return out
}

// freshOver builds the reference answer: a MemStore freshly built over
// the live subsequence of the mutated ID space.
func freshOver(live []*OD, theta float64) *MemStore {
	fresh := NewMemStore()
	for _, o := range live {
		cp := *o
		fresh.Add(&cp)
	}
	fresh.Finalize(theta)
	return fresh
}

// mutationScript applies the shared add/remove/re-add sequence and
// returns the live ODs in ID order (content identity, original IDs).
func mutationScript(t *testing.T, s MutableStore, batch2, batch3 []*OD, remove []int32) {
	t.Helper()
	if err := s.AddAfterFinalize(copyODs(batch2)); err != nil {
		t.Fatalf("AddAfterFinalize batch2: %v", err)
	}
	if err := s.Remove(remove); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := s.AddAfterFinalize(copyODs(batch3)); err != nil {
		t.Fatalf("AddAfterFinalize batch3: %v", err)
	}
}

// assertStoreMatchesFresh compares every Store query of the mutated
// store against the fresh reference, remapping IDs through the live
// subsequence (live old ID k-th in ascending order <=> fresh ID k).
func assertStoreMatchesFresh(t *testing.T, name string, mut MutableStore, fresh *MemStore) {
	t.Helper()
	span := mut.IDSpan()
	remap := map[int32]int32{}
	next := int32(0)
	for id := int32(0); id < span; id++ {
		if mut.Alive(id) {
			remap[id] = next
			next++
		}
	}
	if got, want := mut.Size(), fresh.Size(); got != want {
		t.Fatalf("%s: Size=%d, fresh=%d", name, got, want)
	}
	if int(next) != fresh.Size() {
		t.Fatalf("%s: %d live ids, fresh has %d", name, next, fresh.Size())
	}
	remapIDs := func(ids []int32) []int32 {
		out := make([]int32, len(ids))
		for i, id := range ids {
			m, ok := remap[id]
			if !ok {
				t.Fatalf("%s: posting references dead id %d", name, id)
			}
			out[i] = m
		}
		return out
	}
	remapMatches := func(ms []ValueMatch) []ValueMatch {
		out := make([]ValueMatch, len(ms))
		for i, m := range ms {
			out[i] = ValueMatch{Value: m.Value, Objects: remapIDs(m.Objects), Dist: m.Dist}
		}
		return out
	}

	for id := int32(0); id < span; id++ {
		if !mut.Alive(id) {
			if o := mut.OD(id); o != nil {
				t.Fatalf("%s: OD(%d) non-nil for removed id", name, id)
			}
			continue
		}
		o := mut.OD(id)
		fo := fresh.OD(remap[id])
		if o.Object != fo.Object || !reflect.DeepEqual(o.Tuples, fo.Tuples) {
			t.Fatalf("%s: OD(%d) mismatch vs fresh OD(%d)", name, id, remap[id])
		}
		for _, tu := range o.NonEmptyTuples() {
			if got, want := remapIDs(mut.ObjectsWithExact(tu)), fresh.ObjectsWithExact(tu); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ObjectsWithExact(%v)=%v, fresh=%v", name, tu, got, want)
			}
			if got, want := remapMatches(mut.SimilarValues(tu)), fresh.SimilarValues(tu); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: SimilarValues(%v)=%v, fresh=%v", name, tu, got, want)
			}
			if got, want := mut.SoftIDFSingle(tu), fresh.SoftIDFSingle(tu); got != want {
				t.Fatalf("%s: SoftIDFSingle(%v)=%v, fresh=%v", name, tu, got, want)
			}
		}
		if got, want := remapIDs(mut.Neighbors(id)), fresh.Neighbors(remap[id]); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Neighbors(%d)=%v, fresh(%d)=%v", name, id, got, remap[id], want)
		}
	}

	gotStats, wantStats := mut.Stats(), fresh.Stats()
	for i := range gotStats {
		gotStats[i].Indexed = false
	}
	for i := range wantStats {
		wantStats[i].Indexed = false
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("%s: Stats()=%v, fresh=%v", name, gotStats, wantStats)
	}
}

// mutableFixture builds the shared scenario: an initial CD corpus, an
// added batch, removals spanning initial and added IDs (killing some
// values outright), and a re-adding batch that restores a removed disc's
// values verbatim.
func mutableFixture() (initial, batch2, batch3 []*OD, remove []int32, liveOf func(MutableStore) []*OD) {
	initial = cdODs(40, 99)
	batch2 = cdODs(12, 77)
	for _, o := range batch2 {
		o.Object = "/update1" + o.Object
	}
	// Remove two initial discs (ids 3, 17) and two added ones (ids 40+2,
	// 40+5). Disc 17's values die entirely unless another disc shares
	// them; batch3 re-adds disc 3's exact OD under a new path.
	remove = []int32{3, 17, 42, 45}
	readd := *initial[3]
	readd.Object = "/update2/readd"
	batch3 = append([]*OD{&readd}, cdODs(8, 55)...)
	for _, o := range batch3[1:] {
		o.Object = "/update2" + o.Object
	}
	liveOf = func(s MutableStore) []*OD {
		var out []*OD
		for id := int32(0); id < s.IDSpan(); id++ {
			if s.Alive(id) {
				out = append(out, s.OD(id))
			}
		}
		return out
	}
	return initial, batch2, batch3, remove, liveOf
}

// TestMutableStoreParity is the incremental-maintenance gate: after an
// add/remove/re-add script, every backend must answer all queries
// exactly as a fresh build over the surviving objects would, IDs
// remapped through the live subsequence.
func TestMutableStoreParity(t *testing.T) {
	initial, batch2, batch3, remove, liveOf := mutableFixture()
	const theta = 0.15
	for name, s := range mutableBackends(t, initial, theta) {
		mutationScript(t, s, batch2, batch3, remove)
		fresh := freshOver(liveOf(s), theta)
		assertStoreMatchesFresh(t, name, s, fresh)
	}
}

// TestMutableStoreCompaction drives enough churn through a small store
// to cross the compaction threshold, so the scoped-rebuild path (not
// just the overlay path) is exercised against the fresh reference.
func TestMutableStoreCompaction(t *testing.T) {
	old := compactMin
	compactMin = 4
	defer func() { compactMin = old }()

	initial, _, _, _, liveOf := mutableFixture()
	const theta = 0.15
	for name, s := range mutableBackends(t, initial, theta) {
		// Rolling churn: repeatedly remove the oldest live disc and add a
		// new one, far past the lowered threshold.
		seed := int64(1000)
		for round := 0; round < 12; round++ {
			oldest := int32(-1)
			for id := int32(0); id < s.IDSpan(); id++ {
				if s.Alive(id) {
					oldest = id
					break
				}
			}
			if err := s.Remove([]int32{oldest}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			batch := cdODs(2, seed)
			for i, o := range batch {
				o.Object = fmt.Sprintf("/churn%d/disc[%d]", round, i+1)
			}
			seed++
			if err := s.AddAfterFinalize(copyODs(batch)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		fresh := freshOver(liveOf(s), theta)
		assertStoreMatchesFresh(t, name, s, fresh)
	}
}

// TestMutableRemoveValidation pins the atomic-batch contract: a bad id
// anywhere in the batch leaves the store untouched.
func TestMutableRemoveValidation(t *testing.T) {
	initial, _, _, _, _ := mutableFixture()
	for name, s := range mutableBackends(t, initial, 0.15) {
		before := s.Size()
		if err := s.Remove([]int32{1, 9999}); err == nil {
			t.Fatalf("%s: out-of-range Remove succeeded", name)
		}
		if err := s.Remove([]int32{2, 2}); err == nil {
			t.Fatalf("%s: duplicate Remove succeeded", name)
		}
		if err := s.Remove([]int32{1}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Remove([]int32{1}); err == nil {
			t.Fatalf("%s: double Remove of same id succeeded", name)
		}
		if got := s.Size(); got != before-1 {
			t.Fatalf("%s: Size=%d after one removal of %d", name, got, before)
		}
	}
}

// TestDiskStoreDeltaReopen pins the restart path: a mutated DiskStore's
// delta segments replay on OpenDiskStore, reproducing the exact mutated
// state without a merge.
func TestDiskStoreDeltaReopen(t *testing.T) {
	initial, batch2, batch3, remove, liveOf := mutableFixture()
	const theta = 0.15
	dir := t.TempDir()
	s := NewDiskStore(dir)
	for _, o := range copyODs(initial) {
		s.Add(o)
	}
	s.Finalize(theta)
	mutationScript(t, s, batch2, batch3, remove)
	fresh := freshOver(liveOf(s), theta)
	s.Close()

	re, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertStoreMatchesFresh(t, "reopened", re, fresh)
}

// TestDiskStoreMergeOnSave pins the merge path: Save folds the overlay
// into fresh base segments in place (advanced watermark, deltas
// deleted, removed slots tombstoned so the ID space survives), the
// in-process store keeps answering identically, and the merged
// snapshot reopens to the exact same state.
func TestDiskStoreMergeOnSave(t *testing.T) {
	initial, batch2, batch3, remove, liveOf := mutableFixture()
	const theta = 0.15
	dir := t.TempDir()
	s := NewDiskStore(dir)
	for _, o := range copyODs(initial) {
		s.Add(o)
	}
	s.Finalize(theta)
	mutationScript(t, s, batch2, batch3, remove)
	live := liveOf(s)
	fresh := freshOver(live, theta)

	if err := Save(dir, s, SnapshotMeta{Fingerprint: "merged"}); err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(dir, "delta-*.odx"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("delta files survived the merge: %v", files)
	}

	// The in-process store re-pointed itself at the merged base: same
	// IDs, same answers, no longer diverged from its manifest.
	if s.Mutated() {
		t.Fatal("store still reports Mutated() after its overlay was merged")
	}
	assertStoreMatchesFresh(t, "merged-inprocess", s, fresh)
	s.Close()

	re, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Fingerprint() != "merged" {
		t.Fatalf("fingerprint %q after merge", re.Fingerprint())
	}
	if re.Mutated() {
		t.Fatal("reopened merged snapshot reports Mutated()")
	}
	if got, want := re.Size(), len(live); got != want {
		t.Fatalf("merged size %d, want %d", got, want)
	}
	// The merged snapshot preserves the mutated ID space (holes and
	// all), so the live-subsequence remap matches it to the reference.
	assertStoreMatchesFresh(t, "merged", re, fresh)
}

// TestDiskStoreSaveThenContinueUpdating pins that an in-place merge
// leaves the store usable: mutations continue against the merged base
// with the same ID space, reopen replays the post-merge deltas, and a
// second merge chains cleanly.
func TestDiskStoreSaveThenContinueUpdating(t *testing.T) {
	initial, batch2, batch3, remove, liveOf := mutableFixture()
	const theta = 0.15
	dir := t.TempDir()
	s := NewDiskStore(dir)
	for _, o := range copyODs(initial) {
		s.Add(o)
	}
	s.Finalize(theta)
	if err := s.AddAfterFinalize(copyODs(batch2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(remove); err != nil {
		t.Fatal(err)
	}
	if err := Save(dir, s, SnapshotMeta{Fingerprint: "merge-1"}); err != nil {
		t.Fatal(err)
	}

	// Keep updating the merged store: new adds and a removal of a
	// pre-merge survivor (exercising removal of a base ID whose slot
	// the merge preserved).
	if err := s.AddAfterFinalize(copyODs(batch3)); err != nil {
		t.Fatalf("AddAfterFinalize after merge: %v", err)
	}
	if err := s.Remove([]int32{0}); err != nil {
		t.Fatalf("Remove after merge: %v", err)
	}
	if !s.Mutated() {
		t.Fatal("post-merge mutations not reflected in Mutated()")
	}
	fresh := freshOver(liveOf(s), theta)
	assertStoreMatchesFresh(t, "continued", s, fresh)
	s.Close()

	// Reopen: the tombstoned base plus the post-merge delta segments
	// reproduce the continued state.
	re, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertStoreMatchesFresh(t, "continued-reopen", re, fresh)

	// A second merge chains: deltas fold again, state is unchanged.
	if err := Save(dir, re, SnapshotMeta{Fingerprint: "merge-2"}); err != nil {
		t.Fatal(err)
	}
	assertStoreMatchesFresh(t, "merged-twice", re, fresh)
	re.Close()
	re2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Fingerprint() != "merge-2" {
		t.Fatalf("fingerprint %q after second merge", re2.Fingerprint())
	}
	assertStoreMatchesFresh(t, "merged-twice-reopen", re2, fresh)
}

// TestDiskStoreDeltaCorruption pins the integrity story: a bit-flipped
// delta file and a sequence gap are both rejected at open.
func TestDiskStoreDeltaCorruption(t *testing.T) {
	initial, batch2, _, _, _ := mutableFixture()
	const theta = 0.15

	build := func(t *testing.T) string {
		dir := t.TempDir()
		s := NewDiskStore(dir)
		for _, o := range copyODs(initial) {
			s.Add(o)
		}
		s.Finalize(theta)
		if err := s.AddAfterFinalize(copyODs(batch2[:4])); err != nil {
			t.Fatal(err)
		}
		if err := s.Remove([]int32{1}); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return dir
	}

	t.Run("bitflip", func(t *testing.T) {
		dir := build(t)
		path := filepath.Join(dir, odcodec.DeltaFile(1))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDiskStore(dir); !odcodec.IsCorrupt(err) {
			t.Fatalf("corrupt delta opened: err=%v", err)
		}
	})

	t.Run("gap", func(t *testing.T) {
		dir := build(t)
		if err := os.Remove(filepath.Join(dir, odcodec.DeltaFile(1))); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDiskStore(dir); !odcodec.IsCorrupt(err) {
			t.Fatalf("delta gap opened: err=%v", err)
		}
	})
}

// TestMutableSaveRoundTrips pins that a mutated MemStore exports a
// compact snapshot a DiskStore serves with the same answers as the
// fresh reference.
func TestMutableSaveRoundTrips(t *testing.T) {
	initial, batch2, batch3, remove, liveOf := mutableFixture()
	const theta = 0.15
	for name, s := range mutableBackends(t, initial, theta) {
		if name == "disk" || name == "dist" {
			// disk is covered by TestDiskStoreMergeOnSave; the federation
			// persists through SavePartitioned (its own round-trip suite).
			continue
		}
		mutationScript(t, s, batch2, batch3, remove)
		fresh := freshOver(liveOf(s), theta)
		dir := t.TempDir()
		if err := Save(dir, s, SnapshotMeta{Fingerprint: "fp"}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		re, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertStoreMatchesFresh(t, name+"-snapshot", re, fresh)
		re.Close()
	}
}

// TestSimilarValuesArbitraryLongQuery pins the neighbor-index coverage
// guard: a query longer than every indexed value (so its feasible edit
// count exceeds the deletion-neighborhood budget) must still find all
// matches via the scan fallback, on every backend.
func TestSimilarValuesArbitraryLongQuery(t *testing.T) {
	ods := []*OD{
		{Object: "/a", Tuples: []Tuple{{Value: "abcdefghij", Name: "/n", Type: "T"}}},
		{Object: "/b", Tuples: []Tuple{{Value: "abcdefghijkl", Name: "/n", Type: "T"}}},
	}
	// θ=0.3 over maxLen 12 gives budget 3 (neighbor-indexed); the query
	// below is 14 runes, so a match may need 4 edits (4/14 < 0.3) —
	// beyond the deletion neighborhood's reach.
	const theta = 0.3
	for name, s := range mutableBackends(t, ods, theta) {
		q := Tuple{Value: "abcdefghijklmn", Type: "T"}
		got := s.SimilarValues(q)
		var vals []string
		for _, m := range got {
			vals = append(vals, m.Value)
		}
		sort.Strings(vals)
		want := []string{"abcdefghij", "abcdefghijkl"}
		if !reflect.DeepEqual(vals, want) {
			t.Fatalf("%s: long query found %v, want %v", name, vals, want)
		}
	}
}

// TestMutableStatsExactBudgetAfterLongestValueRemoval pins the
// diagnostics contract on the nastiest budget path: remove the OD
// holding a type's longest value, churn the type through compaction,
// and require Stats (MaxLen and EditBudget included) to match a fresh
// build over the live set on every backend.
func TestMutableStatsExactBudgetAfterLongestValueRemoval(t *testing.T) {
	old := compactMin
	compactMin = 2
	defer func() { compactMin = old }()

	mk := func(obj, val string) *OD {
		return &OD{Object: obj, Tuples: []Tuple{{Value: val, Name: "/db/rec/v", Type: "V"}}}
	}
	initial := []*OD{
		mk("/db/rec[1]", "short"),
		mk("/db/rec[2]", "medium-value"),
		mk("/db/rec[3]", "the-single-longest-value-of-the-type"),
	}
	const theta = 0.15
	for name, s := range mutableBackends(t, initial, theta) {
		if err := s.Remove([]int32{2}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Churn past the lowered threshold so every backend compacts.
		if err := s.AddAfterFinalize(copyODs([]*OD{mk("/db/rec[4]", "tiny"), mk("/db/rec[5]", "small")})); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Remove([]int32{0}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.AddAfterFinalize(copyODs([]*OD{mk("/db/rec[6]", "petite")})); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var live []*OD
		for id := int32(0); id < s.IDSpan(); id++ {
			if s.Alive(id) {
				live = append(live, s.OD(id))
			}
		}
		fresh := freshOver(live, theta)
		got, want := s.Stats(), fresh.Stats()
		for i := range got {
			got[i].Indexed = false
		}
		for i := range want {
			want[i].Indexed = false
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Stats()=%v, fresh=%v", name, got, want)
		}
	}
}

// snapshotFiles reads every file of a snapshot directory by name.
func snapshotFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestSnapshotWritersAgree pins that every writer path produces a fresh
// build's bytes: a MemStore export and a DiskStore export to another
// directory, each unmutated and after the mutation script, equal file
// by file a DiskStore freshly built over the same live set.
func TestSnapshotWritersAgree(t *testing.T) {
	initial, batch2, batch3, remove, liveOf := mutableFixture()
	const theta = 0.15
	reference := func(t *testing.T, live []*OD) map[string][]byte {
		dir := t.TempDir()
		s := NewDiskStore(dir)
		for _, o := range copyODs(live) {
			s.Add(o)
		}
		s.Finalize(theta)
		s.Close()
		return snapshotFiles(t, dir)
	}
	for _, tc := range []struct {
		name    string
		backend func(t *testing.T) MutableStore
		mutate  bool
	}{
		{"mem", func(*testing.T) MutableStore { return NewMemStore() }, false},
		{"mem-mutated", func(*testing.T) MutableStore { return NewMemStore() }, true},
		{"disk", func(t *testing.T) MutableStore { return NewDiskStore(t.TempDir()) }, false},
		{"disk-mutated", func(t *testing.T) MutableStore { return NewDiskStore(t.TempDir()) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.backend(t)
			for _, o := range copyODs(initial) {
				s.Add(o)
			}
			s.Finalize(theta)
			if tc.mutate {
				mutationScript(t, s, batch2, batch3, remove)
			}
			want := reference(t, liveOf(s))
			dir := t.TempDir()
			if err := Save(dir, s, SnapshotMeta{}); err != nil {
				t.Fatal(err)
			}
			got := snapshotFiles(t, dir)
			if len(got) != len(want) {
				t.Fatalf("saved files %d, fresh build %d", len(got), len(want))
			}
			for name, data := range want {
				if !reflect.DeepEqual(got[name], data) {
					t.Errorf("%s differs from the fresh build's (%d vs %d bytes)", name, len(got[name]), len(data))
				}
			}
		})
	}
}

// TestDiskStoreSaveThroughSymlink pins that a save through a second
// path to a DiskStore's own directory is an in-place merge: the store's
// ID space survives, so mutations after the save still name the objects
// they named before, and a reopen matches the in-process live set.
func TestDiskStoreSaveThroughSymlink(t *testing.T) {
	initial, batch2, batch3, remove, liveOf := mutableFixture()
	const theta = 0.15
	root := t.TempDir()
	idx, link := filepath.Join(root, "idx"), filepath.Join(root, "link")
	s := NewDiskStore(idx)
	for _, o := range copyODs(initial) {
		s.Add(o)
	}
	s.Finalize(theta)
	if err := os.Symlink(idx, link); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	mutationScript(t, s, batch2, batch3, remove)
	if err := Save(link, s, SnapshotMeta{Fingerprint: "link"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove([]int32{30}); err != nil {
		t.Fatal(err)
	}
	span := s.IDSpan()
	fresh := freshOver(liveOf(s), theta)
	s.Close()

	re, err := OpenDiskStore(idx)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.IDSpan(); got != span {
		t.Fatalf("reopened ID span %d, in-process store spans %d", got, span)
	}
	assertStoreMatchesFresh(t, "symlink-save-reopen", re, fresh)
}
