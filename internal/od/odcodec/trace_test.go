package odcodec

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// sampleTrace builds a representative trace set over a 7-slot ID span:
// a tombstoned slot, a filter-pruned survivor gap, nil and empty filter
// traces, and pairs with empty and non-empty contradictory sides.
func sampleTrace(digest string) *TraceSet {
	return &TraceSet{
		Fingerprint: "fp-chain-head",
		Size:        6, // one tombstoned slot
		Alive:       []bool{true, true, false, true, false, true, true},
		Filter: [][]TraceFilterStep{
			{{Shared: true, Union: 4}, {Shared: false, Union: 9}},
			{},
			nil,
			{{Shared: false, Union: 1}},
			nil,
			{{Shared: true, Union: 123456}},
			{{Shared: true, Union: 2}, {Shared: true, Union: 2}, {Shared: false, Union: 7}},
		},
		Pairs: map[int64]PairTrace{
			0<<32 | 1: {SimU: []int32{3, 4}, ConU: []int32{9}},
			0<<32 | 3: {SimU: []int32{2}},
			1<<32 | 6: {SimU: []int32{5, 5, 5}, ConU: []int32{}},
			5<<32 | 6: {SimU: []int32{1 << 20}},
		},
		Chain: TraceChain{DeltaSeq: 3, ManifestDigest: digest},
	}
}

// patch is the frame that takes prev to next: the slots and pairs that
// differ, with next's header. patch(&TraceSet{}, ts) is ts as a whole
// write.
func patch(prev, next *TraceSet) *TraceFrame {
	f := &TraceFrame{
		ManifestDigest: next.Chain.ManifestDigest,
		Fingerprint:    next.Fingerprint,
		DeltaSeq:       next.Chain.DeltaSeq,
		Size:           next.Size,
		Alive:          next.Alive,
		HasFilter:      next.Filter != nil,
	}
	for slot, steps := range next.Filter {
		var was []TraceFilterStep
		if slot < len(prev.Filter) {
			was = prev.Filter[slot]
		}
		if !reflect.DeepEqual(steps, was) {
			f.Filter = append(f.Filter, TraceFilterSlot{Slot: int32(slot), Steps: steps})
		}
	}
	for _, key := range slices.Sorted(maps.Keys(prev.Pairs)) {
		if _, ok := next.Pairs[key]; !ok {
			f.Removed = append(f.Removed, key)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(next.Pairs)) {
		if was, ok := prev.Pairs[key]; !ok || !reflect.DeepEqual(was, next.Pairs[key]) {
			f.Pairs = append(f.Pairs, TracePair{Key: key, PairTrace: next.Pairs[key]})
		}
	}
	return f
}

// writeTrace starts the chain in dir over with ts as its one frame.
func writeTrace(t testing.TB, dir string, ts *TraceSet) TraceChain {
	t.Helper()
	c, err := WriteTraceFrame(dir, TraceChain{}, patch(&TraceSet{}, ts))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// normTrace erases the codec's only lossy distinction — an empty union
// slice versus an absent one — ahead of DeepEqual.
func normTrace(ts *TraceSet) *TraceSet {
	for key, p := range ts.Pairs {
		if len(p.SimU) == 0 {
			p.SimU = nil
		}
		if len(p.ConU) == 0 {
			p.ConU = nil
		}
		ts.Pairs[key] = p
	}
	return ts
}

func TestTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeSample(t, dir, "fp")
	digest, err := ManifestDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleTrace(digest)
	chain := writeTrace(t, dir, want)
	got, err := ReadTrace(dir)
	if err != nil {
		t.Fatal(err)
	}
	want.Chain = chain
	if !reflect.DeepEqual(normTrace(got), normTrace(want)) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if chain.Frames != 1 || chain.DeltaSeq != 3 || chain.ManifestDigest != digest {
		t.Fatalf("writer reported chain %+v, want one frame at the trace's sequence and digest", chain)
	}
}

func TestTraceRoundTripNoFilters(t *testing.T) {
	dir := t.TempDir()
	writeSample(t, dir, "fp")
	digest, err := ManifestDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleTrace(digest)
	want.Filter = nil
	writeTrace(t, dir, want)
	got, err := ReadTrace(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Filter != nil {
		t.Fatalf("Filter = %v, want nil (not recorded)", got.Filter)
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("got %d pairs, want %d", len(got.Pairs), len(want.Pairs))
	}

	// A state that records filter traces without any slot holding one
	// stays distinct from a state that records none.
	want.Filter = make([][]TraceFilterStep, len(want.Alive))
	writeTrace(t, dir, want)
	if got, err = ReadTrace(dir); err != nil || got.Filter == nil || len(got.Filter) != len(want.Alive) {
		t.Fatalf("all-nil filter slots read back as %v (err %v), want %d nil slots", got.Filter, err, len(want.Alive))
	}
}

func TestTraceAbsent(t *testing.T) {
	ts, err := ReadTrace(t.TempDir())
	if err != nil || ts != nil {
		t.Fatalf("ReadTrace(empty dir) = %v, %v; want nil, nil", ts, err)
	}
}

// TestTraceOldLayoutRefused pins the documented downgrade: trace files
// of the earlier layouts carry the retired frame kinds 8 to 11, and no
// reader branch accepts them.
func TestTraceOldLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	writeTrace(t, dir, sampleTrace("digest-one"))
	path := filepath.Join(dir, TraceFile)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []byte{8, 9, 10, 11} {
		b := append([]byte(nil), valid...)
		b[5] = kind
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("frame kind %d", kind)
		if _, err := ReadTrace(dir); !IsCorrupt(err) || !strings.Contains(err.Error(), want) {
			t.Fatalf("retired kind %d read back: %v", kind, err)
		}
	}
}

// invalidFrames maps a structural invariant to a mutation of the first
// sample frame that breaks it.
var invalidFrames = map[string]func(*TraceFrame){
	"size over span":        func(f *TraceFrame) { f.Size = len(f.Alive) + 1 },
	"negative size":         func(f *TraceFrame) { f.Size = -1 },
	"slots without filter":  func(f *TraceFrame) { f.HasFilter = false },
	"filter slot negative":  func(f *TraceFrame) { f.Filter[0].Slot = -1 },
	"filter slot over span": func(f *TraceFrame) { f.Filter[1].Slot = int32(len(f.Alive)) },
	"filter slots unsorted": func(f *TraceFrame) { f.Filter[0], f.Filter[1] = f.Filter[1], f.Filter[0] },
	"filter slot repeated":  func(f *TraceFrame) { f.Filter[1].Slot = f.Filter[0].Slot },
	"negative f-union":      func(f *TraceFrame) { f.Filter[1].Steps[0].Union = -2 },
	"removed key i==j":      func(f *TraceFrame) { f.Removed[0] = 3<<32 | 3 },
	"removed key over span": func(f *TraceFrame) { f.Removed[0] = 3<<32 | int64(len(f.Alive)) },
	"removed keys unsorted": func(f *TraceFrame) { f.Removed = []int64{5<<32 | 6, 0<<32 | 3} },
	"pair i==j":             func(f *TraceFrame) { f.Pairs[0].Key = 1<<32 | 1 },
	"pair i negative":       func(f *TraceFrame) { f.Pairs[0].Key = -1<<32 | 1 },
	"pair j over span":      func(f *TraceFrame) { f.Pairs[1].Key = 5<<32 | int64(len(f.Alive)) },
	"pair keys unsorted":    func(f *TraceFrame) { f.Pairs[0], f.Pairs[1] = f.Pairs[1], f.Pairs[0] },
	"duplicate pair key":    func(f *TraceFrame) { f.Pairs[1].Key = f.Pairs[0].Key },
	"negative union":        func(f *TraceFrame) { f.Pairs[0].SimU[0] = -9 },
}

// TestWriteTraceRejectsInvalid pins the encoder's checks on a chain's
// first frame: a frame that violates a structural invariant is refused
// before any file lands on disk.
func TestWriteTraceRejectsInvalid(t *testing.T) {
	for name, mutate := range invalidFrames {
		t.Run(name, func(t *testing.T) {
			fresh := t.TempDir()
			f, _, _ := sampleFrames()
			mutate(f)
			if _, err := WriteTraceFrame(fresh, TraceChain{}, f); err == nil {
				t.Fatal("accepted as a first frame")
			}
			if entries, _ := os.ReadDir(fresh); len(entries) != 0 {
				t.Fatalf("a refused first frame left %d files behind", len(entries))
			}
		})
	}
}

// TestAppendTraceDeltaValidation pins the append-side checks: a frame
// that violates a structural invariant, or one with no chain on disk to
// extend, is refused before any byte lands on disk.
func TestAppendTraceDeltaValidation(t *testing.T) {
	d1, _, _ := sampleFrames()
	if _, err := WriteTraceFrame(t.TempDir(), TraceChain{Frames: 1}, d1); err == nil {
		t.Fatal("an append without a chain on disk succeeded")
	}
	for name, mutate := range invalidFrames {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			chain := writeTrace(t, dir, sampleTrace("digest-one"))
			pristine, err := os.ReadFile(filepath.Join(dir, TraceFile))
			if err != nil {
				t.Fatal(err)
			}
			f, _, _ := sampleFrames()
			mutate(f)
			if _, err := WriteTraceFrame(dir, chain, f); err == nil {
				t.Fatal("accepted as an appended frame")
			}
			if after, err := os.ReadFile(filepath.Join(dir, TraceFile)); err != nil || string(after) != string(pristine) {
				t.Fatalf("a refused append changed the chain (err %v)", err)
			}
		})
	}
}

// TestTraceByteFlips corrupts a one-frame trace file one byte at a
// time; the CRC makes every flip a rejection, and every truncation too.
func TestTraceByteFlips(t *testing.T) {
	dir := t.TempDir()
	writeSample(t, dir, "fp")
	digest, err := ManifestDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeTrace(t, dir, sampleTrace(digest))
	path := filepath.Join(dir, TraceFile)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range valid {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTrace(dir); err == nil {
			t.Fatalf("flip at byte %d of %d accepted", i, len(valid))
		} else if !IsCorrupt(err) {
			t.Fatalf("flip at byte %d rejected with non-corruption error %v", i, err)
		}
	}
	for n := 0; n < len(valid); n++ {
		if err := os.WriteFile(path, valid[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTrace(dir); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(valid))
		}
	}
}

// sampleFrames returns two frames extending sampleTrace — a
// span-growing mixed edit and a filter-dropping follow-up, each at a
// later delta sequence — plus the state the chain must fold to after
// both.
func sampleFrames() (d1, d2 *TraceFrame, final *TraceSet) {
	d1 = &TraceFrame{
		ManifestDigest: "digest-two",
		Fingerprint:    "fp-chain-2",
		DeltaSeq:       4,
		Size:           7,
		Alive:          []bool{true, true, false, true, false, true, true, true, false},
		HasFilter:      true,
		Filter: []TraceFilterSlot{
			{Slot: 1, Steps: nil}, // clears
			{Slot: 7, Steps: []TraceFilterStep{{Shared: true, Union: 3}}},
		},
		Removed: []int64{0<<32 | 3},
		Pairs: []TracePair{
			{Key: 0<<32 | 1, PairTrace: PairTrace{SimU: []int32{7}, ConU: []int32{1}}}, // re-scored
			{Key: 6<<32 | 7, PairTrace: PairTrace{SimU: []int32{2}}},                   // added
		},
	}
	d2 = &TraceFrame{
		ManifestDigest: "digest-three",
		Fingerprint:    "fp-chain-3",
		DeltaSeq:       6,
		Size:           7,
		Alive:          d1.Alive,
	}
	final = &TraceSet{
		Fingerprint: "fp-chain-3",
		Size:        7,
		Alive:       d1.Alive,
		Pairs: map[int64]PairTrace{
			0<<32 | 1: {SimU: []int32{7}, ConU: []int32{1}},
			1<<32 | 6: {SimU: []int32{5, 5, 5}},
			5<<32 | 6: {SimU: []int32{1 << 20}},
			6<<32 | 7: {SimU: []int32{2}},
		},
		Chain: TraceChain{Frames: 3, DeltaSeq: 6, ManifestDigest: "digest-three"},
	}
	return d1, d2, final
}

// chainSample writes sampleTrace plus both sampleFrames into dir,
// linking each frame to the chain its predecessor's write returned —
// which must be the chain a full read reports.
func chainSample(t *testing.T, dir string) (final *TraceSet) {
	t.Helper()
	chain := writeTrace(t, dir, sampleTrace("digest-one"))
	d1, d2, final := sampleFrames()
	for _, f := range []*TraceFrame{d1, d2} {
		ts, err := ReadTrace(dir)
		if err != nil {
			t.Fatal(err)
		}
		if ts.Chain != chain {
			t.Fatalf("writer returned chain %+v, the file reads as %+v", chain, ts.Chain)
		}
		if chain, err = WriteTraceFrame(dir, chain, f); err != nil {
			t.Fatal(err)
		}
	}
	final.Chain.LastCRC = chain.LastCRC
	return final
}

// TestTraceChainAccumulates pins the heart of the patch design: a
// first frame plus appended frames reads back exactly like a
// whole-segment rewrite of the final state.
func TestTraceChainAccumulates(t *testing.T) {
	dir := t.TempDir()
	final := chainSample(t, dir)
	got, info, err := ReadTraceChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Frames != 3 || info.TraceChain != got.Chain {
		t.Fatalf("chain info %+v, state chain %+v; want 3 frames in both", info, got.Chain)
	}
	if !reflect.DeepEqual(normTrace(got), normTrace(final)) {
		t.Fatalf("accumulated chain diverges:\n got %+v\nwant %+v", got, final)
	}

	// The exact same state written as a single frame must be
	// indistinguishable to a reader, but for the chain's shape.
	compact := t.TempDir()
	writeTrace(t, compact, final)
	viaWrite, err := ReadTrace(compact)
	if err != nil {
		t.Fatal(err)
	}
	viaWrite.Chain = got.Chain
	if !reflect.DeepEqual(normTrace(viaWrite), got) {
		t.Fatalf("chain and whole rewrite diverge:\nchain   %+v\nrewrite %+v", got, viaWrite)
	}
}

// randomTrace derives the next state of a random update history from
// prev (the empty state for the first): the span may grow, survival
// and the header change, filter traces appear, change, clear or drop
// out entirely, and pairs are removed, re-scored and added.
func randomTrace(rng *rand.Rand, prev *TraceSet, n int) *TraceSet {
	span := len(prev.Alive) + rng.Intn(4)
	if span < 2 {
		span = 2
	}
	next := &TraceSet{
		Fingerprint: fmt.Sprintf("fp-%d", n),
		Alive:       make([]bool, span),
		Pairs:       map[int64]PairTrace{},
		Chain:       TraceChain{DeltaSeq: prev.Chain.DeltaSeq + uint64(rng.Intn(3)), ManifestDigest: fmt.Sprintf("digest-%d", rng.Intn(3))},
	}
	for i := range next.Alive {
		next.Alive[i] = rng.Intn(4) > 0
	}
	next.Size = rng.Intn(span + 1)
	randUnions := func(max int) []int32 {
		if rng.Intn(4) == 0 {
			return nil
		}
		us := make([]int32, rng.Intn(max+1))
		for k := range us {
			us[k] = int32(rng.Intn(1 << uint(rng.Intn(20)+1)))
		}
		return us
	}
	if rng.Intn(5) > 0 {
		next.Filter = make([][]TraceFilterStep, span)
		for i := range next.Filter {
			switch {
			case i < len(prev.Filter) && rng.Intn(3) > 0:
				next.Filter[i] = prev.Filter[i]
			case rng.Intn(3) == 0:
				// nil: no trace recorded
			default:
				us := randUnions(3)
				steps := make([]TraceFilterStep, len(us))
				for k, u := range us {
					steps[k] = TraceFilterStep{Shared: u%2 == 0, Union: u}
				}
				next.Filter[i] = steps
			}
		}
	}
	for key, tr := range prev.Pairs {
		switch rng.Intn(4) {
		case 0: // removed
		case 1:
			next.Pairs[key] = PairTrace{SimU: randUnions(4), ConU: randUnions(2)}
		default:
			next.Pairs[key] = tr
		}
	}
	for range rng.Intn(6) {
		i := rng.Intn(span - 1)
		j := i + 1 + rng.Intn(span-i-1)
		next.Pairs[int64(i)<<32|int64(j)] = PairTrace{SimU: randUnions(4), ConU: randUnions(2)}
	}
	return next
}

// TestTraceChainFoldsLikeOneWrite is the property behind every append:
// over seeded random update histories, a whole write followed by k
// appended patches reads back equal to one whole write of the final
// state — the same fold, only from a different starting frame.
func TestTraceChainFoldsLikeOneWrite(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir, whole := t.TempDir(), t.TempDir()
		state := randomTrace(rng, &TraceSet{}, 0)
		chain := writeTrace(t, dir, state)
		k := rng.Intn(MaxTraceFrames)
		for n := 1; n <= k; n++ {
			next := randomTrace(rng, state, n)
			var err error
			if chain, err = WriteTraceFrame(dir, chain, patch(state, next)); err != nil {
				t.Fatalf("seed %d frame %d: %v", seed, n, err)
			}
			state = next
		}
		got, err := ReadTrace(dir)
		if err != nil {
			t.Fatalf("seed %d: chain of %d frames: %v", seed, k+1, err)
		}
		if got.Chain != chain {
			t.Fatalf("seed %d: chain reads as %+v, the writer reported %+v", seed, got.Chain, chain)
		}
		wholeChain := writeTrace(t, whole, state)
		want, err := ReadTrace(whole)
		if err != nil {
			t.Fatalf("seed %d: whole write: %v", seed, err)
		}
		if wholeChain.DeltaSeq != chain.DeltaSeq || wholeChain.ManifestDigest != chain.ManifestDigest {
			t.Fatalf("seed %d: chain ends at %+v, the whole write at %+v", seed, chain, wholeChain)
		}
		want.Chain = got.Chain
		if !reflect.DeepEqual(normTrace(got), normTrace(want)) {
			t.Fatalf("seed %d: %d patches diverge from one whole write:\n got %+v\nwant %+v", seed, k, got, want)
		}
	}
}

// TestLastTraceCRC pins the append path's cheap chain check: the last
// frame's CRC read from the file's final footer alone equals what a
// full read of the chain reports, and a missing file or a torn tail is
// an error rather than that CRC.
func TestLastTraceCRC(t *testing.T) {
	dir := t.TempDir()
	if _, err := LastTraceCRC(dir); err == nil {
		t.Fatal("LastTraceCRC of a directory without a trace succeeded")
	}
	chainSample(t, dir)
	_, info, err := ReadTraceChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	if crc, err := LastTraceCRC(dir); err != nil || crc != info.LastCRC {
		t.Fatalf("LastTraceCRC = %08x, %v; the chain ends in %08x", crc, err, info.LastCRC)
	}
	if err := os.Truncate(filepath.Join(dir, TraceFile), info.Bytes-3); err != nil {
		t.Fatal(err)
	}
	if crc, err := LastTraceCRC(dir); err == nil && crc == info.LastCRC {
		t.Fatal("a torn tail still reports the chain's last CRC")
	}
}

// TestTraceChainBreaks pins the chain-integrity rejections reading a
// structurally valid file that is not a valid chain.
func TestTraceChainBreaks(t *testing.T) {
	// appendFrame writes a well-formed frame after sampleTrace, linked
	// to link, and requires the reader to reject the chain.
	appendFrame := func(t *testing.T, link func(TraceChain) TraceChain, f *TraceFrame, what string) {
		t.Helper()
		dir := t.TempDir()
		chain := writeTrace(t, dir, sampleTrace("digest-one"))
		if _, err := WriteTraceFrame(dir, link(chain), f); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTrace(dir); !IsCorrupt(err) {
			t.Fatalf("%s read back: %v", what, err)
		}
	}
	same := func(c TraceChain) TraceChain { return c }
	base := sampleTrace("x")
	t.Run("wrong prev-crc", func(t *testing.T) {
		d, _, _ := sampleFrames()
		appendFrame(t, func(c TraceChain) TraceChain { c.LastCRC = 0xBADC0FFE; return c }, d, "a frame linking to a foreign CRC")
	})
	t.Run("second base frame", func(t *testing.T) {
		// A concurrent whole rewrite appended after the chain presents
		// a frame linking to CRC 0 at a non-zero offset.
		dir, other := t.TempDir(), t.TempDir()
		writeTrace(t, dir, sampleTrace("digest-one"))
		writeTrace(t, other, sampleTrace("digest-one"))
		frame, err := os.ReadFile(filepath.Join(other, TraceFile))
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(filepath.Join(dir, TraceFile), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(frame); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, err := ReadTrace(dir); !IsCorrupt(err) {
			t.Fatalf("doubled first frame read back: %v", err)
		}
	})
	t.Run("delta shrinks span", func(t *testing.T) {
		appendFrame(t, same, &TraceFrame{ManifestDigest: "d2", DeltaSeq: 3, Size: 2, Alive: []bool{true, true}},
			"a span-shrinking frame")
	})
	t.Run("delta rewinds sequence", func(t *testing.T) {
		appendFrame(t, same, &TraceFrame{ManifestDigest: "d2", DeltaSeq: base.Chain.DeltaSeq - 1, Size: base.Size, Alive: base.Alive},
			"a sequence-rewinding frame")
	})
	t.Run("removes unknown pair", func(t *testing.T) {
		appendFrame(t, same, &TraceFrame{ManifestDigest: "d2", DeltaSeq: base.Chain.DeltaSeq, Size: base.Size, Alive: base.Alive,
			Removed: []int64{2<<32 | 3}}, "a frame removing a never-recorded pair")
	})
}

// TestTraceChainByteFlips extends the single-frame corruption suite to
// a three-frame chain: every single-byte flip anywhere in the chain is
// rejected, every truncation is rejected except at exact frame
// boundaries — a whole-frame prefix is a valid (shorter) chain, and its
// now-stale delta sequence is the od layer's problem.
func TestTraceChainByteFlips(t *testing.T) {
	dir := t.TempDir()
	chainSample(t, dir)
	path := filepath.Join(dir, TraceFile)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := map[int]int{} // prefix length -> expected frames
	for off, frames := 0, 0; off < len(valid); {
		off = nextFrameEnd(t, valid, off)
		frames++
		boundaries[off] = frames
	}
	for i := range valid {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTrace(dir); err == nil {
			t.Fatalf("flip at byte %d of %d accepted", i, len(valid))
		} else if !IsCorrupt(err) {
			t.Fatalf("flip at byte %d rejected with non-corruption error %v", i, err)
		}
	}
	for n := 0; n <= len(valid); n++ {
		if err := os.WriteFile(path, valid[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		ts, info, err := ReadTraceChain(dir)
		wantFrames, atBoundary := boundaries[n]
		switch {
		case n == 0:
			// An existing zero-byte file is a torn chain, not "no trace".
			if ts != nil || !IsCorrupt(err) {
				t.Fatalf("empty file: got %v, %v; want corruption", ts, err)
			}
		case atBoundary:
			if err != nil || info.Frames != wantFrames {
				t.Fatalf("truncation to frame boundary %d: frames %d, err %v; want %d frames", n, info.Frames, err, wantFrames)
			}
		default:
			if err == nil {
				t.Fatalf("mid-frame truncation to %d of %d bytes accepted", n, len(valid))
			}
		}
	}
}

// nextFrameEnd walks one frame forward from off by re-reading the
// chain prefix-by-prefix: the smallest longer prefix that parses as a
// whole chain ends the frame.
func nextFrameEnd(t *testing.T, valid []byte, off int) int {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, TraceFile)
	for end := off + headerSize + footerSize; end <= len(valid); end++ {
		if err := os.WriteFile(path, valid[:end], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, info, err := ReadTraceChain(dir); err == nil && info.Bytes == int64(end) {
			return end
		}
	}
	t.Fatalf("no frame boundary found after offset %d", off)
	return 0
}

// FuzzTraceSegment feeds arbitrary bytes as the trace file: ReadTrace
// must reject cleanly or decode a structurally valid trace set — never
// panic, never over-allocate on a tiny hostile frame. The seeds cover
// one-frame and multi-frame chains.
func FuzzTraceSegment(f *testing.F) {
	dir, err := os.MkdirTemp("", "odcodec-trace-fuzz-")
	if err != nil {
		f.Fatal(err)
	}
	read := func() []byte {
		b, err := os.ReadFile(filepath.Join(dir, TraceFile))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	writeTrace(f, dir, sampleTrace("seed-digest"))
	valid := read()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(append([]byte(nil), valid[:len(valid)/2]...))
	writeTrace(f, dir, &TraceSet{Chain: TraceChain{ManifestDigest: "d"}})
	f.Add(read())
	chain := writeTrace(f, dir, sampleTrace("seed-digest"))
	d1, d2, _ := sampleFrames()
	var twoFrames []byte
	for _, d := range []*TraceFrame{d1, d2} {
		if chain, err = WriteTraceFrame(dir, chain, d); err != nil {
			f.Fatal(err)
		}
		if twoFrames == nil {
			twoFrames = read()
		}
	}
	f.Add(read())
	f.Add(twoFrames)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, TraceFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		ts, err := ReadTrace(dir)
		if err != nil {
			return // rejected cleanly
		}
		// Accepted: the folded set must satisfy every structural
		// invariant the encoder enforces.
		span := len(ts.Alive)
		if ts.Size < 0 || ts.Size > span {
			t.Fatalf("accepted size %d outside [0,%d]", ts.Size, span)
		}
		if ts.Filter != nil && len(ts.Filter) != span {
			t.Fatalf("accepted %d filter slots for span %d", len(ts.Filter), span)
		}
		for key := range ts.Pairs {
			i, j := key>>32, key&0xffffffff
			if i < 0 || i >= j || j >= int64(span) {
				t.Fatalf("accepted pair key (%d,%d) for span %d", i, j, span)
			}
		}
	})
}
