package odcodec

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sampleTrace builds a representative trace set over a 7-slot ID span:
// a tombstoned slot, a filter-pruned survivor gap, nil and empty filter
// traces, and pairs with empty and non-empty contradictory sides.
func sampleTrace(digest string) *TraceSet {
	return &TraceSet{
		ManifestDigest: digest,
		Fingerprint:    "fp-chain-head",
		DeltaSeq:       3,
		Size:           6, // one tombstoned slot
		Alive:          []bool{true, true, false, true, false, true, true},
		Filters: [][]TraceFilterStep{
			{{Shared: true, Union: 4}, {Shared: false, Union: 9}},
			{},
			nil,
			{{Shared: false, Union: 1}},
			nil,
			{{Shared: true, Union: 123456}},
			{{Shared: true, Union: 2}, {Shared: true, Union: 2}, {Shared: false, Union: 7}},
		},
		Pairs: []TracePair{
			{Key: 0<<32 | 1, SimU: []int32{3, 4}, ConU: []int32{9}},
			{Key: 0<<32 | 3, SimU: []int32{2}},
			{Key: 1<<32 | 6, SimU: []int32{5, 5, 5}, ConU: []int32{}},
			{Key: 5<<32 | 6, SimU: []int32{1 << 20}},
		},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeSample(t, dir, "fp")
	digest, err := ManifestDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleTrace(digest)
	if _, err := WriteTrace(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The codec does not distinguish an empty ConU from an absent one;
	// normalize before the deep comparison.
	norm := func(ts *TraceSet) {
		for i := range ts.Pairs {
			if len(ts.Pairs[i].SimU) == 0 {
				ts.Pairs[i].SimU = nil
			}
			if len(ts.Pairs[i].ConU) == 0 {
				ts.Pairs[i].ConU = nil
			}
		}
		for i := range ts.Filters {
			if ts.Filters[i] != nil && len(ts.Filters[i]) == 0 {
				ts.Filters[i] = []TraceFilterStep{}
			}
		}
	}
	norm(want)
	norm(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
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
	want.Filters = nil
	if _, err := WriteTrace(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Filters != nil {
		t.Fatalf("Filters = %v, want nil (not recorded)", got.Filters)
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("got %d pairs, want %d", len(got.Pairs), len(want.Pairs))
	}
}

func TestTraceAbsent(t *testing.T) {
	ts, err := ReadTrace(t.TempDir())
	if err != nil || ts != nil {
		t.Fatalf("ReadTrace(empty dir) = %v, %v; want nil, nil", ts, err)
	}
}

// TestTraceOldLayoutRefused pins the documented downgrade: trace files
// written before every frame recorded its delta sequence carry the
// retired frame kinds 8 and 9, and no reader branch accepts them.
func TestTraceOldLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteTrace(dir, sampleTrace("digest-one")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, TraceFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[5] = 8 // the retired base-frame kind
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(dir); !IsCorrupt(err) || !strings.Contains(err.Error(), "frame kind 8") {
		t.Fatalf("old-layout trace read back: %v", err)
	}
}

func TestWriteTraceRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	base := func() *TraceSet { return sampleTrace("d") }
	for name, mutate := range map[string]func(*TraceSet){
		"size over span":   func(ts *TraceSet) { ts.Size = len(ts.Alive) + 1 },
		"negative size":    func(ts *TraceSet) { ts.Size = -1 },
		"filter span":      func(ts *TraceSet) { ts.Filters = ts.Filters[:3] },
		"pair i==j":        func(ts *TraceSet) { ts.Pairs[0].Key = 1<<32 | 1 },
		"pair j over span": func(ts *TraceSet) { ts.Pairs[3].Key = 5<<32 | 7 },
		"keys not sorted":  func(ts *TraceSet) { ts.Pairs[1], ts.Pairs[2] = ts.Pairs[2], ts.Pairs[1] },
		"duplicate key":    func(ts *TraceSet) { ts.Pairs[1].Key = ts.Pairs[0].Key },
		"negative union":   func(ts *TraceSet) { ts.Pairs[0].SimU[0] = -1 },
		"negative f-union": func(ts *TraceSet) { ts.Filters[0][0].Union = -2 },
	} {
		ts := base()
		mutate(ts)
		if _, err := WriteTrace(dir, ts); err == nil {
			t.Errorf("%s: WriteTrace accepted an invalid trace set", name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, TraceFile)); !os.IsNotExist(err) {
		t.Fatalf("rejected writes left a trace file behind (stat err %v)", err)
	}
}

// TestTraceByteFlips corrupts the committed trace file one byte at a
// time; every flip must be rejected (or, where a flip lands in the
// digest/fingerprint strings without breaking framing, still decode —
// the CRC makes that impossible here, so rejection is total).
func TestTraceByteFlips(t *testing.T) {
	dir := t.TempDir()
	writeSample(t, dir, "fp")
	digest, err := ManifestDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteTrace(dir, sampleTrace(digest)); err != nil {
		t.Fatal(err)
	}
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
	// Truncations at every length must also be rejected.
	for n := 0; n < len(valid); n++ {
		if err := os.WriteFile(path, valid[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTrace(dir); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(valid))
		}
	}
}

// normTrace erases the codec's only lossy distinction — an empty union
// or filter-step slice versus an absent one — ahead of DeepEqual.
func normTrace(ts *TraceSet) *TraceSet {
	for i := range ts.Pairs {
		if len(ts.Pairs[i].SimU) == 0 {
			ts.Pairs[i].SimU = nil
		}
		if len(ts.Pairs[i].ConU) == 0 {
			ts.Pairs[i].ConU = nil
		}
	}
	for i := range ts.Filters {
		if len(ts.Filters[i]) == 0 && ts.Filters[i] != nil {
			ts.Filters[i] = []TraceFilterStep{}
		}
	}
	return ts
}

// sampleDeltas returns two deltas extending sampleTrace — a span-growing
// mixed edit and a filter-dropping follow-up, each at a later delta
// sequence — plus the state the chain must accumulate to after both.
// PrevCRC is left for the caller to link.
func sampleDeltas() (d1, d2 *TraceDelta, final *TraceSet) {
	d1 = &TraceDelta{
		ManifestDigest: "digest-two",
		Fingerprint:    "fp-chain-2",
		DeltaSeq:       4,
		Size:           7,
		Alive:          []bool{true, true, false, true, false, true, true, true, false},
		FilterUpdates: []TraceFilterUpdate{
			{Slot: 1, Steps: nil}, // clears
			{Slot: 7, Steps: []TraceFilterStep{{Shared: true, Union: 3}}},
		},
		RemovedPairs: []uint64{0<<32 | 3},
		Pairs: []TracePair{
			{Key: 0<<32 | 1, SimU: []int32{7}, ConU: []int32{1}}, // re-scored
			{Key: 6<<32 | 7, SimU: []int32{2}},                   // added
		},
	}
	d2 = &TraceDelta{
		ManifestDigest: "digest-three",
		Fingerprint:    "fp-chain-3",
		DeltaSeq:       6,
		Size:           7,
		Alive:          d1.Alive,
		DropFilters:    true,
	}
	final = &TraceSet{
		ManifestDigest: "digest-three",
		Fingerprint:    "fp-chain-3",
		DeltaSeq:       6,
		Size:           7,
		Alive:          d1.Alive,
		Pairs: []TracePair{
			{Key: 0<<32 | 1, SimU: []int32{7}, ConU: []int32{1}},
			{Key: 1<<32 | 6, SimU: []int32{5, 5, 5}},
			{Key: 5<<32 | 6, SimU: []int32{1 << 20}},
			{Key: 6<<32 | 7, SimU: []int32{2}},
		},
	}
	return d1, d2, final
}

// chainSample writes sampleTrace plus both sampleDeltas into dir,
// linking each frame to the CRC its predecessor's writer returned —
// which must be the CRC a full read of the chain reports.
func chainSample(t *testing.T, dir string) (d1, d2 *TraceDelta, final *TraceSet) {
	t.Helper()
	crc, err := WriteTrace(dir, sampleTrace("digest-one"))
	if err != nil {
		t.Fatal(err)
	}
	d1, d2, final = sampleDeltas()
	for _, d := range []*TraceDelta{d1, d2} {
		_, info, err := ReadTraceChain(dir)
		if err != nil {
			t.Fatal(err)
		}
		if info.LastCRC != crc {
			t.Fatalf("writer returned CRC %08x, the chain ends in %08x", crc, info.LastCRC)
		}
		d.PrevCRC = crc
		if crc, err = AppendTraceDelta(dir, d); err != nil {
			t.Fatal(err)
		}
	}
	return d1, d2, final
}

// TestTraceChainAccumulates pins the heart of the delta design: a base
// frame plus appended deltas reads back exactly like a whole-segment
// rewrite of the final state.
func TestTraceChainAccumulates(t *testing.T) {
	dir := t.TempDir()
	_, _, final := chainSample(t, dir)
	got, info, err := ReadTraceChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Frames != 3 {
		t.Fatalf("chain has %d frames, want 3", info.Frames)
	}
	if !reflect.DeepEqual(normTrace(got), normTrace(final)) {
		t.Fatalf("accumulated chain diverges:\n got %+v\nwant %+v", got, final)
	}

	// The exact same state written as a single compacted frame must be
	// indistinguishable to a reader.
	compact := t.TempDir()
	if _, err := WriteTrace(compact, final); err != nil {
		t.Fatal(err)
	}
	viaWrite, err := ReadTrace(compact)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normTrace(viaWrite), got) {
		t.Fatalf("chain and whole rewrite diverge:\nchain   %+v\nrewrite %+v", got, viaWrite)
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

// TestAppendTraceDeltaValidation pins the append-side checks: a delta
// that violates a structural invariant, or one with no base frame to
// extend, is refused before any byte lands on disk.
func TestAppendTraceDeltaValidation(t *testing.T) {
	if _, err := AppendTraceDelta(t.TempDir(), &TraceDelta{Alive: []bool{true, true}}); err == nil {
		t.Fatal("delta without a base frame accepted")
	}
	dir := t.TempDir()
	if _, err := WriteTrace(dir, sampleTrace("digest-one")); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(filepath.Join(dir, TraceFile))
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*TraceDelta){
		"size over span":       func(d *TraceDelta) { d.Size = len(d.Alive) + 1 },
		"negative size":        func(d *TraceDelta) { d.Size = -1 },
		"drop plus updates":    func(d *TraceDelta) { d.DropFilters = true },
		"filter slot negative": func(d *TraceDelta) { d.FilterUpdates[0].Slot = -1 },
		"filter slot over":     func(d *TraceDelta) { d.FilterUpdates[1].Slot = int32(len(d.Alive)) },
		"filter slots unsorted": func(d *TraceDelta) {
			d.FilterUpdates[0], d.FilterUpdates[1] = d.FilterUpdates[1], d.FilterUpdates[0]
		},
		"removed key i==j": func(d *TraceDelta) { d.RemovedPairs[0] = 3<<32 | 3 },
		"removed key over": func(d *TraceDelta) { d.RemovedPairs[0] = 3<<32 | uint64(len(d.Alive)) },
		"removed keys unsorted": func(d *TraceDelta) {
			d.RemovedPairs = []uint64{5<<32 | 6, 0<<32 | 3}
		},
		"pair keys unsorted": func(d *TraceDelta) { d.Pairs[0], d.Pairs[1] = d.Pairs[1], d.Pairs[0] },
		"negative union":     func(d *TraceDelta) { d.Pairs[0].SimU[0] = -9 },
	} {
		d, _, _ := sampleDeltas()
		mutate(d)
		if _, err := AppendTraceDelta(dir, d); err != nil {
			continue
		}
		t.Errorf("%s: AppendTraceDelta accepted an invalid delta", name)
		// Restore the file for the remaining cases.
		if err := os.WriteFile(filepath.Join(dir, TraceFile), pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	after, err := os.ReadFile(filepath.Join(dir, TraceFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(pristine) {
		t.Fatalf("rejected deltas grew the chain from %d to %d bytes", len(pristine), len(after))
	}
}

// TestTraceChainBreaks pins the chain-integrity rejections reading a
// structurally valid file that is not a valid chain.
func TestTraceChainBreaks(t *testing.T) {
	t.Run("wrong prev-crc", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := WriteTrace(dir, sampleTrace("digest-one")); err != nil {
			t.Fatal(err)
		}
		d, _, _ := sampleDeltas()
		d.PrevCRC = 0xBADC0FFE
		if _, err := AppendTraceDelta(dir, d); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTrace(dir); !IsCorrupt(err) {
			t.Fatalf("delta linking to a foreign CRC read back: %v", err)
		}
	})
	t.Run("second base frame", func(t *testing.T) {
		// A concurrent whole rewrite appended after the chain would
		// present a kindTrace frame at a non-zero offset.
		dir, other := t.TempDir(), t.TempDir()
		if _, err := WriteTrace(dir, sampleTrace("digest-one")); err != nil {
			t.Fatal(err)
		}
		if _, err := WriteTrace(other, sampleTrace("digest-one")); err != nil {
			t.Fatal(err)
		}
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
			t.Fatalf("doubled base frame read back: %v", err)
		}
	})
	t.Run("delta shrinks span", func(t *testing.T) {
		dir := t.TempDir()
		crc, err := WriteTrace(dir, sampleTrace("digest-one"))
		if err != nil {
			t.Fatal(err)
		}
		d := &TraceDelta{PrevCRC: crc, ManifestDigest: "d2", DeltaSeq: 3, Size: 2, Alive: []bool{true, true}}
		if _, err := AppendTraceDelta(dir, d); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTrace(dir); !IsCorrupt(err) {
			t.Fatalf("span-shrinking delta read back: %v", err)
		}
	})
	t.Run("delta rewinds sequence", func(t *testing.T) {
		dir := t.TempDir()
		base := sampleTrace("digest-one")
		crc, err := WriteTrace(dir, base)
		if err != nil {
			t.Fatal(err)
		}
		d := &TraceDelta{PrevCRC: crc, ManifestDigest: "d2", DeltaSeq: base.DeltaSeq - 1, Size: base.Size,
			Alive: base.Alive, DropFilters: true}
		if _, err := AppendTraceDelta(dir, d); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTrace(dir); !IsCorrupt(err) {
			t.Fatalf("sequence-rewinding delta read back: %v", err)
		}
	})
	t.Run("removes unknown pair", func(t *testing.T) {
		dir := t.TempDir()
		crc, err := WriteTrace(dir, sampleTrace("digest-one"))
		if err != nil {
			t.Fatal(err)
		}
		base := sampleTrace("x")
		d := &TraceDelta{PrevCRC: crc, ManifestDigest: "d2", DeltaSeq: base.DeltaSeq, Size: base.Size,
			Alive: base.Alive, DropFilters: true, RemovedPairs: []uint64{2<<32 | 3}}
		if _, err := AppendTraceDelta(dir, d); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTrace(dir); !IsCorrupt(err) {
			t.Fatalf("delta removing a never-recorded pair read back: %v", err)
		}
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
// one-frame and multi-frame chains, each frame carrying its delta
// sequence.
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
	if _, err := WriteTrace(dir, sampleTrace("seed-digest")); err != nil {
		f.Fatal(err)
	}
	valid := read()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(append([]byte(nil), valid[:len(valid)/2]...))
	empty := &TraceSet{ManifestDigest: "d", Size: 0, Alive: nil}
	if _, err := WriteTrace(dir, empty); err != nil {
		f.Fatal(err)
	}
	f.Add(read())
	crc, err := WriteTrace(dir, sampleTrace("seed-digest"))
	if err != nil {
		f.Fatal(err)
	}
	d1, d2, _ := sampleDeltas()
	var twoFrames []byte
	for _, d := range []*TraceDelta{d1, d2} {
		d.PrevCRC = crc
		if crc, err = AppendTraceDelta(dir, d); err != nil {
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
		// Accepted: the decoded set must satisfy every structural
		// invariant WriteTrace enforces.
		span := len(ts.Alive)
		if ts.Size < 0 || ts.Size > span {
			t.Fatalf("accepted size %d outside [0,%d]", ts.Size, span)
		}
		if ts.Filters != nil && len(ts.Filters) != span {
			t.Fatalf("accepted %d filter slots for span %d", len(ts.Filters), span)
		}
		var prev uint64
		for n, p := range ts.Pairs {
			i, j := int64(p.Key>>32), int64(p.Key&0xffffffff)
			if i >= j || j >= int64(span) {
				t.Fatalf("accepted pair key (%d,%d) for span %d", i, j, span)
			}
			if n > 0 && p.Key <= prev {
				t.Fatalf("accepted unsorted pair keys")
			}
			prev = p.Key
		}
	})
}
