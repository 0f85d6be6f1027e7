package odcodec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// The trace segment persists the Step 4 incremental-replay state — the
// softIDF-union similarity traces recorded per compared pair and the
// filter-bound traces recorded per object — so a process restart can
// replay untouched bounds and pair scores instead of recomparing every
// surviving pair. Like delta segments it is a standalone CRC-framed
// file next to the base segments; unlike them it is a pure cache: it is
// bound to the exact manifest it was recorded against (by manifest
// digest) and to the store's delta sequence, and any mismatch,
// corruption or absence merely downgrades the next Update to a full
// recompare.
//
// Physically the file is a chain of frames of one kind, kindTrace.
// Every frame is a patch: the state after one write, expressed against
// the state the preceding frames accumulate to — removed and re-scored
// pairs, changed filter slots, the new alive bitmap and header — plus
// the CRC of the frame it extends, so a patch can never apply to the
// wrong predecessor. The first frame links to CRC 0 and patches the
// empty state, so a whole rewrite is simply the patch from nothing, and
// the reader folds every frame the same way. Every frame records the
// store delta sequence its state describes, which binds the chain to
// the unmerged delta segments a reopen replays on top of the manifest.
// An update batch appends one frame (O_APPEND + fsync) instead of
// rewriting the whole segment. A torn append corrupts only the tail,
// which rejects the whole chain — the usual full-recompare downgrade,
// never a wrong replay.

// TraceFile is the trace segment's file name within a snapshot
// directory.
const TraceFile = "trace.odx"

// MaxTraceFrames bounds the trace chain: the update whose frame would
// make the chain this long rewrites it as one frame instead — after
// merging its delta segments, on a DiskStore in its own directory — so
// the load cost and the deltas a reopen replays are bounded by the
// chain, not by update history.
const MaxTraceFrames = 8

// TraceSet is the replay state of one finished detection or update run
// over a store, in that store's ID space: the form the od layer and
// the detector hold in memory, and the state a trace chain folds to.
type TraceSet struct {
	// Fingerprint is the corpus-chain fingerprint of the run ("" when
	// the run carried no provenance); it seeds the update fingerprint
	// chain across restarts. Binding is by Chain, not by it.
	Fingerprint string
	// Size is the store's live object count |ΩT|.
	Size int
	// Alive is the run's post-reduce survival per slot over
	// [0, IDSpan): false for removed IDs and for objects the Step 4
	// filter pruned. Survivors are always store-live, but not every
	// live object survives.
	Alive []bool
	// Pairs maps pair keys (int64(i)<<32|j, i<j) to similarity traces:
	// one per compared pair with at least one similar match, both
	// endpoints survivors. A trace stays valid while neither endpoint's
	// exact tuple postings change.
	Pairs map[int64]PairTrace
	// Filter holds per-slot filter-bound traces (nil slot = none
	// recorded); nil entirely when the run computed no bounds. A trace
	// stays valid while no posting of a value θtuple-similar to one of
	// the object's tuples changes.
	Filter [][]TraceFilterStep
	// Chain is the shape of the persisted chain the set was read from
	// or last written as; zero for a set never persisted. Writers
	// ignore it and return the shape they leave.
	Chain TraceChain
}

// PairTrace records what one comparison took from the store: the
// occurrence-union sizes behind each matched pair's softIDF term, in
// accumulation order. The matching itself depends only on the two ODs'
// tuple values (edit distances, deterministic tie-breaks) — never on
// the store — so as long as neither OD's exact tuple postings change,
// the score under a different corpus size |ΩT| replays from the trace
// bit-identically.
type PairTrace struct {
	SimU []int32 // |O_a ∪ O_b| per similar match (ODT≈), in match order
	ConU []int32 // likewise for contradictory matches (ODT≠)
}

// TraceFilterStep is one non-empty tuple's contribution to a traced
// filter bound: whether the tuple was shared and the occurrence-union
// size its softIDF term derives from. While none of the postings behind
// a tuple's θtuple-similar values change, the bound under a new corpus
// size replays from the steps bit-identically.
type TraceFilterStep struct {
	Shared bool
	Union  int32
}

// TraceChain is the shape of a persisted trace chain: what the next
// append must link to, and the store state the chain describes. The
// zero value means no chain is known.
type TraceChain struct {
	Frames         int    // frames in the chain; 0 = none known
	LastCRC        uint32 // footer CRC of the last frame
	DeltaSeq       uint64 // store delta sequence the chain describes
	ManifestDigest string // manifest the chain is bound to
}

// Appendable reports whether an update may extend the chain by one
// frame: a chain is known and stays below MaxTraceFrames.
func (c TraceChain) Appendable() bool { return c.Frames > 0 && c.Frames+1 < MaxTraceFrames }

// TraceFrame is one patch of the trace chain: the state after one
// write, against the state the chain accumulates to before it (the
// empty state for a chain's first frame).
type TraceFrame struct {
	// ManifestDigest (the SHA-256 of the manifest the state was recorded
	// against), Fingerprint, DeltaSeq and Size replace the accumulated
	// values; DeltaSeq never moves backwards along a chain.
	ManifestDigest string
	Fingerprint    string
	DeltaSeq       uint64
	Size           int
	// Alive is the whole survival bitmap. Its span may grow along a
	// chain (IDs are never renumbered by an in-place update) but never
	// shrink.
	Alive []bool
	// HasFilter reports that the patched state records filter-bound
	// traces; without it the state has none and Filter must be empty.
	HasFilter bool
	// Filter lists the slots whose traces changed, strictly ascending;
	// nil Steps clears a slot.
	Filter []TraceFilterSlot
	// Removed lists pair keys deleted from the accumulated state,
	// strictly ascending. Every key must exist — a miss rejects the
	// chain.
	Removed []int64
	// Pairs lists added or re-scored pair traces, strictly ascending by
	// Key; an existing key is replaced.
	Pairs []TracePair
}

// TraceFilterSlot is one changed filter slot of a TraceFrame.
type TraceFilterSlot struct {
	Slot  int32
	Steps []TraceFilterStep // nil clears the slot's trace
}

// TracePair is one added or re-scored pair trace of a TraceFrame.
type TracePair struct {
	Key int64
	PairTrace
}

// ManifestDigest returns the SHA-256 hex digest of the committed
// manifest's bytes — the value trace segments chain to.
func ManifestDigest(dir string) (string, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		if os.IsNotExist(err) {
			return "", ErrNoSnapshot
		}
		return "", fmt.Errorf("odcodec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ManifestDeltaSeq returns the committed manifest's delta watermark —
// the delta sequence a store reopened from dir starts at.
func ManifestDeltaSeq(dir string) (uint64, error) {
	meta, _, err := readManifest(dir)
	if err != nil {
		return 0, err
	}
	return meta.DeltaSeq, nil
}

// WriteTraceFrame persists f as the frame after chain c in dir and
// returns the chain it leaves. With no chain known (c.Frames == 0) it
// starts the chain over: the one-frame file is written to a temporary
// name, synced, renamed into place and the directory synced, so a crash
// mid-write never leaves a half trace under the committed name.
// Otherwise it appends the frame, linked to c.LastCRC, with a single
// write and an fsync; a crash mid-append leaves a torn tail that fails
// frame validation and downgrades the next load to a full recompare,
// exactly like a missing trace. An invalid frame is refused before any
// byte lands on disk.
func WriteTraceFrame(dir string, c TraceChain, f *TraceFrame) (TraceChain, error) {
	var prevCRC uint32
	if c.Frames > 0 {
		prevCRC = c.LastCRC
	}
	payload, err := encodeTraceFrame(prevCRC, f)
	if err != nil {
		return TraceChain{}, err
	}
	h := newHeader(kindTrace, Version)
	crc := crc32.Update(0, crcTable, h)
	crc = crc32.Update(crc, crcTable, payload)
	out := append(h, payload...)
	out = append(out, newFooter(crc)...)

	path := filepath.Join(dir, TraceFile)
	var file *os.File
	if c.Frames == 0 {
		file, err = os.Create(path + tmpSuffix)
	} else {
		file, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	}
	if err != nil {
		return TraceChain{}, fmt.Errorf("odcodec: write trace: %w", err)
	}
	if _, err := file.Write(out); err != nil {
		file.Close()
		return TraceChain{}, fmt.Errorf("odcodec: write trace: %w", err)
	}
	if err := file.Sync(); err != nil {
		file.Close()
		return TraceChain{}, fmt.Errorf("odcodec: write trace: %w", err)
	}
	if err := file.Close(); err != nil {
		return TraceChain{}, fmt.Errorf("odcodec: write trace: %w", err)
	}
	if c.Frames == 0 {
		if err := os.Rename(path+tmpSuffix, path); err != nil {
			return TraceChain{}, fmt.Errorf("odcodec: write trace: %w", err)
		}
		if err := syncDir(dir); err != nil {
			return TraceChain{}, err
		}
	}
	return TraceChain{Frames: c.Frames + 1, LastCRC: crc, DeltaSeq: f.DeltaSeq, ManifestDigest: f.ManifestDigest}, nil
}

// encodeTraceFrame validates f and encodes its payload. Every ascending
// list — filter slots, removed keys, pair keys — is written as gaps from
// a start of -1, so each gap is positive.
func encodeTraceFrame(prevCRC uint32, f *TraceFrame) ([]byte, error) {
	span := len(f.Alive)
	if f.Size < 0 || f.Size > span {
		return nil, fmt.Errorf("odcodec: trace size %d outside [0,%d]", f.Size, span)
	}
	if !f.HasFilter && len(f.Filter) > 0 {
		return nil, fmt.Errorf("odcodec: trace frame without filter traces updates %d filter slots", len(f.Filter))
	}
	b := binary.LittleEndian.AppendUint32(nil, prevCRC)
	b = appendString(b, f.ManifestDigest)
	b = appendString(b, f.Fingerprint)
	b = appendUvarint(b, f.DeltaSeq)
	b = appendUvarint(b, uint64(f.Size))
	b = appendUvarint(b, uint64(span))
	bitmap := make([]byte, (span+7)/8)
	for i, a := range f.Alive {
		if a {
			bitmap[i/8] |= 1 << (i % 8)
		}
	}
	b = append(b, bitmap...)
	if f.HasFilter {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}

	b = appendUvarint(b, uint64(len(f.Filter)))
	prev := int64(-1)
	for _, u := range f.Filter {
		if u.Slot < 0 || int(u.Slot) >= span || int64(u.Slot) <= prev {
			return nil, fmt.Errorf("odcodec: trace filter slot %d not ascending within span %d", u.Slot, span)
		}
		b = appendUvarint(b, uint64(int64(u.Slot)-prev))
		prev = int64(u.Slot)
		if u.Steps == nil {
			b = appendUvarint(b, 0)
			continue
		}
		b = appendUvarint(b, uint64(len(u.Steps))+1)
		for _, st := range u.Steps {
			if st.Union < 0 {
				return nil, fmt.Errorf("odcodec: negative filter union %d", st.Union)
			}
			v := uint64(st.Union) << 1
			if st.Shared {
				v |= 1
			}
			b = appendUvarint(b, v)
		}
	}

	var err error
	b = appendUvarint(b, uint64(len(f.Removed)))
	prev = -1
	for _, key := range f.Removed {
		if b, err = appendPairKey(b, key, prev, span); err != nil {
			return nil, err
		}
		prev = key
	}
	b = appendUvarint(b, uint64(len(f.Pairs)))
	prev = -1
	for _, p := range f.Pairs {
		if b, err = appendPairKey(b, p.Key, prev, span); err != nil {
			return nil, err
		}
		prev = p.Key
		for _, us := range [2][]int32{p.SimU, p.ConU} {
			b = appendUvarint(b, uint64(len(us)))
			for _, u := range us {
				if u < 0 {
					return nil, fmt.Errorf("odcodec: negative trace union %d", u)
				}
				b = appendUvarint(b, uint64(u))
			}
		}
	}
	return b, nil
}

// appendPairKey appends a pair key as its gap to the previous key of an
// ascending list, refusing a key that is not a valid pair of the span
// or not above prev.
func appendPairKey(b []byte, key, prev int64, span int) ([]byte, error) {
	i, j := key>>32, key&math.MaxUint32
	if i < 0 || i >= j || j >= int64(span) {
		return nil, fmt.Errorf("odcodec: trace pair key (%d,%d) invalid for span %d", i, j, span)
	}
	if key <= prev {
		return nil, fmt.Errorf("odcodec: trace pair keys not strictly ascending")
	}
	return appendUvarint(b, uint64(key-prev)), nil
}

// LastTraceCRC returns the footer CRC of the trace chain's last frame,
// reading only the file's final footer: the check an append makes that
// the file still ends in the frame it extends. A missing file, or a
// tail without the trailing magic, is an error.
func LastTraceCRC(dir string) (uint32, error) {
	f, err := os.Open(filepath.Join(dir, TraceFile))
	if err != nil {
		return 0, fmt.Errorf("odcodec: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("odcodec: %w", err)
	}
	if st.Size() < headerSize+footerSize {
		return 0, corrupt(TraceFile, "trace file too short (%d bytes)", st.Size())
	}
	var footer [footerSize]byte
	if _, err := f.ReadAt(footer[:], st.Size()-footerSize); err != nil {
		return 0, fmt.Errorf("odcodec: %w", err)
	}
	if [4]byte(footer[4:]) != magicEnd {
		return 0, corrupt(TraceFile, "bad trailing magic %q (torn append?)", footer[4:])
	}
	return binary.LittleEndian.Uint32(footer[:4]), nil
}

// ReadTrace loads and fully verifies the trace chain in dir, folding
// every frame into the final replay state, whose Chain records the
// chain's shape. Returns (nil, nil) when no trace file exists;
// corruption anywhere in the chain — including a torn appended tail —
// is a *CorruptError. The caller checks the manifest digest and delta
// sequence — ReadTrace only validates the encoding.
func ReadTrace(dir string) (*TraceSet, error) {
	ts, _, err := ReadTraceChain(dir)
	return ts, err
}

// TraceChainInfo is a trace chain's shape plus its file size.
type TraceChainInfo struct {
	TraceChain
	Bytes int64
}

// ReadTraceChain is ReadTrace plus the chain's shape and file size.
func ReadTraceChain(dir string) (*TraceSet, TraceChainInfo, error) {
	var info TraceChainInfo
	buf, err := os.ReadFile(filepath.Join(dir, TraceFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, info, nil
		}
		return nil, info, fmt.Errorf("odcodec: %w", err)
	}
	if int64(len(buf)) > 1<<33 {
		return nil, info, corrupt(TraceFile, "implausible trace size %d", len(buf))
	}
	if len(buf) == 0 {
		return nil, info, corrupt(TraceFile, "empty trace chain")
	}
	ts := &TraceSet{}
	for off := 0; off < len(buf); {
		// The payload is self-delimiting, so the frame boundary is only
		// known after decoding; the CRC over the decoded extent must then
		// match the footer exactly where the decoder stopped. A flipped
		// byte either breaks decoding or moves/fails the CRC — both
		// reject. The folded state is never returned unless the whole
		// chain verifies.
		if len(buf)-off < headerSize+footerSize {
			return nil, info, corrupt(TraceFile, "truncated trace frame at offset %d", off)
		}
		h := buf[off : off+headerSize]
		if [4]byte(h[:4]) != magic {
			return nil, info, corrupt(TraceFile, "bad magic %q at offset %d", h[:4], off)
		}
		if v := h[4]; v != Version {
			return nil, info, corrupt(TraceFile, "unsupported format version %d (this binary reads %d)", v, Version)
		}
		if h[5] != kindTrace {
			return nil, info, corrupt(TraceFile, "frame kind %d at offset %d, want %d", h[5], off, kindTrace)
		}
		br := &byteReader{buf: buf[off+headerSize:], file: TraceFile}
		if err := foldTraceFrame(br, ts, off); err != nil {
			return nil, info, err
		}
		end := off + headerSize + br.pos
		if end+footerSize > len(buf) {
			return nil, info, corrupt(TraceFile, "truncated trace frame at offset %d", off)
		}
		crc := crc32.Checksum(buf[off:end], crcTable)
		if err := checkFooter(TraceFile, buf[end:end+footerSize], crc); err != nil {
			return nil, info, err
		}
		ts.Chain.Frames++
		ts.Chain.LastCRC = crc
		off = end + footerSize
	}
	info.TraceChain, info.Bytes = ts.Chain, int64(len(buf))
	return ts, info, nil
}

// foldTraceFrame decodes the frame payload at br and applies it to ts,
// advancing br to the payload end. Every structural mismatch — a link
// to another CRC than the previous frame's, a shrinking span, a delta
// sequence moving backwards, removing a pair the chain never recorded —
// rejects the chain as corrupt. The first frame patches the empty state
// and keeps what it decodes as the state's own slices and map.
func foldTraceFrame(br *byteReader, ts *TraceSet, off int) error {
	if br.pos+4 > len(br.buf) {
		return corrupt(TraceFile, "frame at offset %d too short for chain CRC", off)
	}
	if link := binary.LittleEndian.Uint32(br.buf[br.pos:]); link != ts.Chain.LastCRC {
		return corrupt(TraceFile, "frame at offset %d links to CRC %08x, previous frame is %08x", off, link, ts.Chain.LastCRC)
	}
	br.pos += 4
	var err error
	if ts.Chain.ManifestDigest, err = br.str(); err != nil {
		return err
	}
	if ts.Fingerprint, err = br.str(); err != nil {
		return err
	}
	seq, err := br.uvarint()
	if err != nil {
		return err
	}
	if seq < ts.Chain.DeltaSeq {
		return corrupt(TraceFile, "frame rewinds delta sequence %d to %d", ts.Chain.DeltaSeq, seq)
	}
	ts.Chain.DeltaSeq = seq
	if ts.Size, err = br.count(maxCount); err != nil {
		return err
	}
	span, err := br.count(maxCount)
	if err != nil {
		return err
	}
	if span < len(ts.Alive) {
		return corrupt(TraceFile, "frame shrinks span %d to %d", len(ts.Alive), span)
	}
	if ts.Size > span {
		return corrupt(TraceFile, "size %d exceeds span %d", ts.Size, span)
	}
	nBitmap := (span + 7) / 8
	if br.pos+nBitmap > len(br.buf) {
		return corrupt(TraceFile, "alive bitmap of %d bytes overruns payload", nBitmap)
	}
	ts.Alive = make([]bool, span)
	for i := range ts.Alive {
		ts.Alive[i] = br.buf[br.pos+i/8]&(1<<(i%8)) != 0
	}
	br.pos += nBitmap

	hasFilter, err := br.presence("filter")
	if err != nil {
		return err
	}
	nSlots, err := br.count(min(span, len(br.buf)-br.pos))
	if err != nil {
		return err
	}
	switch {
	case !hasFilter && nSlots > 0:
		return corrupt(TraceFile, "frame without filter traces updates %d filter slots", nSlots)
	case !hasFilter:
		ts.Filter = nil
	case len(ts.Filter) < span || ts.Filter == nil:
		grown := make([][]TraceFilterStep, span)
		copy(grown, ts.Filter)
		ts.Filter = grown
	}
	slot := int64(-1)
	for range nSlots {
		if slot, err = readGap(br, slot); err != nil {
			return err
		}
		if slot >= int64(span) {
			return corrupt(TraceFile, "filter slot %d invalid for span %d", slot, span)
		}
		m, err := br.count(len(br.buf) - br.pos + 1)
		if err != nil {
			return err
		}
		if m == 0 {
			ts.Filter[slot] = nil
			continue
		}
		steps := make([]TraceFilterStep, m-1)
		for k := range steps {
			v, err := br.uvarint()
			if err != nil {
				return err
			}
			u := v >> 1
			if u > math.MaxInt32 {
				return corrupt(TraceFile, "filter union %d overflows int32", u)
			}
			steps[k] = TraceFilterStep{Shared: v&1 == 1, Union: int32(u)}
		}
		ts.Filter[slot] = steps
	}

	// Every key costs at least one payload byte and every pair at least
	// three (key gap + two lengths), so the remaining bytes bound each
	// count before any allocation.
	nRemoved, err := br.count(min(maxCount, len(br.buf)-br.pos))
	if err != nil {
		return err
	}
	key := int64(-1)
	for range nRemoved {
		if key, err = readPairKey(br, key, span); err != nil {
			return err
		}
		if _, ok := ts.Pairs[key]; !ok {
			return corrupt(TraceFile, "frame removes pair (%d,%d) the chain never recorded", key>>32, key&math.MaxUint32)
		}
		delete(ts.Pairs, key)
	}
	nPairs, err := br.count(min(maxCount, (len(br.buf)-br.pos)/3))
	if err != nil {
		return err
	}
	if ts.Pairs == nil {
		ts.Pairs = make(map[int64]PairTrace, nPairs)
	}
	// The union slices are carved from shared chunks, one allocation per
	// chunk instead of one per slice: a load then triggers few
	// collections, and none of them rescans the growing map. A chunk
	// stays alive while any pair it holds does.
	var chunk []int32
	key = -1
	for range nPairs {
		if key, err = readPairKey(br, key, span); err != nil {
			return err
		}
		var tr PairTrace
		for side, dst := range [2]*[]int32{&tr.SimU, &tr.ConU} {
			m, err := br.count(min(maxCount, len(br.buf)-br.pos))
			if err != nil {
				return err
			}
			if m == 0 {
				continue
			}
			if len(chunk) < m {
				chunk = make([]int32, max(m, 4096))
			}
			us := chunk[:m:m]
			chunk = chunk[m:]
			for k := range us {
				v, err := br.uvarint()
				if err != nil {
					return err
				}
				if v > math.MaxInt32 {
					return corrupt(TraceFile, "trace union %d overflows int32 (pair (%d,%d) side %d)", v, key>>32, key&math.MaxUint32, side)
				}
				us[k] = int32(v)
			}
			*dst = us
		}
		ts.Pairs[key] = tr
	}
	return nil
}

// readGap decodes the next element of an ascending list from its
// positive gap to prev.
func readGap(br *byteReader, prev int64) (int64, error) {
	g, err := br.uvarint()
	if err != nil {
		return 0, err
	}
	if g == 0 || g > 1<<62 {
		return 0, corrupt(TraceFile, "bad gap %d after %d in an ascending list", g, prev)
	}
	return prev + int64(g), nil
}

// readPairKey decodes the next key of an ascending pair-key list and
// checks that it is a valid pair of the span.
func readPairKey(br *byteReader, prev int64, span int) (int64, error) {
	key, err := readGap(br, prev)
	if err != nil {
		return 0, err
	}
	if i, j := key>>32, key&math.MaxUint32; i >= j || j >= int64(span) {
		return 0, corrupt(TraceFile, "pair key (%d,%d) invalid for span %d", i, j, span)
	}
	return key, nil
}
