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
// Physically the file is a frame chain: one full kindTrace frame (the
// base) optionally followed by kindTraceDelta frames, each carrying
// only what one update batch changed — removed and re-scored pairs,
// touched filter slots, the new alive bitmap — plus the CRC of the
// frame it extends, so a delta can never replay against the wrong
// predecessor. Every frame records the store delta sequence its state
// describes, which binds the chain to the unmerged delta segments a
// reopen replays on top of the manifest. An update batch appends a
// delta (O_APPEND + fsync) instead of rewriting the whole segment;
// WriteTrace starts the chain over as a single frame. A torn append
// corrupts only the tail, which rejects the whole chain — the usual
// full-recompare downgrade, never a wrong replay.

// TraceFile is the trace segment's file name within a snapshot
// directory.
const TraceFile = "trace.odx"

// TraceSet is the persisted incremental-replay state of one snapshot.
type TraceSet struct {
	// ManifestDigest chains the traces to the snapshot they were
	// recorded against: the SHA-256 of the manifest file's bytes at
	// write time. Any later Save or UpdateMeta rewrites the manifest and
	// thereby invalidates the traces, including a crash between the
	// snapshot commit and the trace write.
	ManifestDigest string
	// Fingerprint is the corpus-chain fingerprint of the run that
	// recorded the traces ("" when the snapshot carries no provenance).
	// It seeds the update fingerprint chain across restarts; binding is
	// by ManifestDigest and DeltaSeq, not by it.
	Fingerprint string
	// DeltaSeq is the sequence of the last store delta segment the
	// traces describe (the manifest's watermark when none is unmerged).
	DeltaSeq uint64
	// Size is the live object count of the store the traces describe.
	Size int
	// Alive is the recording run's post-reduce survival per slot of the
	// store's ID space (len(Alive) == IDSpan): false for removed IDs
	// and for objects the Step 4 filter pruned.
	Alive []bool
	// Filters holds per-slot filter-bound traces, index-aligned with
	// Alive; a nil slot means no trace was recorded for that object.
	// Filters itself is nil when the run replayed persisted filter
	// values and recorded no bound traces at all.
	Filters [][]TraceFilterStep
	// Pairs holds one similarity trace per scored pair, strictly
	// ascending by Key.
	Pairs []TracePair
}

// TracePair is one pair's similarity trace: the pair key
// (int64(i)<<32|j with i<j, cast to uint64) and the |O_a ∪ O_b| union
// sizes of its similar and contradictory matches, in match order.
type TracePair struct {
	Key  uint64
	SimU []int32
	ConU []int32
}

// TraceFilterStep is one step of an object's filter-bound trace.
type TraceFilterStep struct {
	Shared bool
	Union  int32
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

// WriteTrace atomically persists a trace set as a one-frame chain:
// written to a temporary name, synced, renamed into place, directory
// synced — a crash mid-write never leaves a half trace under the
// committed name. It returns the frame's CRC, the link the next
// AppendTraceDelta extends.
func WriteTrace(dir string, ts *TraceSet) (uint32, error) {
	span := len(ts.Alive)
	if ts.Size < 0 || ts.Size > span {
		return 0, fmt.Errorf("odcodec: trace size %d outside [0,%d]", ts.Size, span)
	}
	if ts.Filters != nil && len(ts.Filters) != span {
		return 0, fmt.Errorf("odcodec: %d filter traces for span %d", len(ts.Filters), span)
	}
	b := appendString(nil, ts.ManifestDigest)
	b = appendString(b, ts.Fingerprint)
	b = appendUvarint(b, ts.DeltaSeq)
	b = appendUvarint(b, uint64(ts.Size))
	b = appendUvarint(b, uint64(span))
	b = appendAliveBitmap(b, ts.Alive)
	if ts.Filters == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		var err error
		for _, steps := range ts.Filters {
			if b, err = appendFilterSlot(b, steps); err != nil {
				return 0, err
			}
		}
	}
	b, err := appendTracePairs(b, ts.Pairs, span)
	if err != nil {
		return 0, err
	}

	h := newHeader(kindTrace, Version)
	crc := crc32.Update(0, crcTable, h)
	crc = crc32.Update(crc, crcTable, b)
	out := append(h, b...)
	out = append(out, newFooter(crc)...)

	path := filepath.Join(dir, TraceFile)
	f, err := os.Create(path + tmpSuffix)
	if err != nil {
		return 0, fmt.Errorf("odcodec: %w", err)
	}
	if _, err := f.Write(out); err != nil {
		f.Close()
		return 0, fmt.Errorf("odcodec: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, fmt.Errorf("odcodec: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("odcodec: %w", err)
	}
	if err := os.Rename(path+tmpSuffix, path); err != nil {
		return 0, fmt.Errorf("odcodec: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	return crc, nil
}

// RemoveTrace deletes the trace segment, if any. Best-effort: a file
// that resists deletion stays on disk and is rejected by its manifest
// digest anyway.
func RemoveTrace(dir string) {
	os.Remove(filepath.Join(dir, TraceFile))
}

// appendAliveBitmap packs a survival slice into its wire bitmap.
func appendAliveBitmap(b []byte, alive []bool) []byte {
	bitmap := make([]byte, (len(alive)+7)/8)
	for i, a := range alive {
		if a {
			bitmap[i/8] |= 1 << (i % 8)
		}
	}
	return append(b, bitmap...)
}

// appendFilterSlot encodes one slot's filter-bound trace: 0 for a nil
// slot, otherwise len+1 followed by the steps.
func appendFilterSlot(b []byte, steps []TraceFilterStep) ([]byte, error) {
	if steps == nil {
		return appendUvarint(b, 0), nil
	}
	b = appendUvarint(b, uint64(len(steps))+1)
	for _, st := range steps {
		if st.Union < 0 {
			return nil, fmt.Errorf("odcodec: negative filter union %d", st.Union)
		}
		v := uint64(st.Union) << 1
		if st.Shared {
			v |= 1
		}
		b = appendUvarint(b, v)
	}
	return b, nil
}

// appendTracePairs encodes a pair-trace list: count, then
// delta-encoded keys (strictly ascending) with their union slices.
func appendTracePairs(b []byte, pairs []TracePair, span int) ([]byte, error) {
	b = appendUvarint(b, uint64(len(pairs)))
	var prevKey uint64
	for n, p := range pairs {
		i, j := int64(p.Key>>32), int64(p.Key&math.MaxUint32)
		if i >= j || j >= int64(span) {
			return nil, fmt.Errorf("odcodec: trace pair key (%d,%d) invalid for span %d", i, j, span)
		}
		if n == 0 {
			b = appendUvarint(b, p.Key)
		} else {
			if p.Key <= prevKey {
				return nil, fmt.Errorf("odcodec: trace pair keys not strictly ascending")
			}
			b = appendUvarint(b, p.Key-prevKey)
		}
		prevKey = p.Key
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

// TraceDelta is one append-friendly increment of the trace chain: the
// replay state after one update batch, expressed against the state the
// preceding frames accumulate to. PrevCRC binds it to the exact frame
// it extends.
type TraceDelta struct {
	// PrevCRC is the footer CRC of the frame this delta extends — the
	// chain link. A delta appended after a concurrent rewrite can never
	// masquerade as part of the new chain.
	PrevCRC uint32
	// ManifestDigest, Fingerprint, DeltaSeq and Size supersede the
	// accumulated values; DeltaSeq never moves backwards.
	ManifestDigest string
	Fingerprint    string
	DeltaSeq       uint64
	Size           int
	// Alive is the full post-update survival bitmap. Its span may grow
	// (IDs are never renumbered by an in-place update) but never shrink.
	Alive []bool
	// DropFilters reports that the new state records no filter-bound
	// traces at all (TraceSet.Filters == nil). Mutually exclusive with
	// FilterUpdates.
	DropFilters bool
	// FilterUpdates lists the filter slots whose traces changed,
	// strictly ascending by Slot; nil Steps clears a slot.
	FilterUpdates []TraceFilterUpdate
	// RemovedPairs lists pair keys deleted from the accumulated state,
	// strictly ascending. Every key must exist — a miss rejects the
	// chain.
	RemovedPairs []uint64
	// Pairs lists added or re-scored pair traces, strictly ascending by
	// Key; an existing key is replaced.
	Pairs []TracePair
}

// TraceFilterUpdate is one changed filter slot of a TraceDelta.
type TraceFilterUpdate struct {
	Slot  int32
	Steps []TraceFilterStep // nil clears the slot's trace
}

// AppendTraceDelta appends one delta frame to the trace chain in dir
// and returns the new frame's CRC. The base frame must already exist —
// a delta without a predecessor is meaningless. The frame is written
// with a single write and fsynced; a crash mid-append leaves a torn
// tail that fails frame validation and downgrades the next load to a
// full recompare, exactly like a missing trace.
func AppendTraceDelta(dir string, d *TraceDelta) (uint32, error) {
	span := len(d.Alive)
	if d.Size < 0 || d.Size > span {
		return 0, fmt.Errorf("odcodec: trace delta size %d outside [0,%d]", d.Size, span)
	}
	if d.DropFilters && len(d.FilterUpdates) > 0 {
		return 0, fmt.Errorf("odcodec: trace delta both drops filters and updates %d slots", len(d.FilterUpdates))
	}

	b := binary.LittleEndian.AppendUint32(nil, d.PrevCRC)
	b = appendString(b, d.ManifestDigest)
	b = appendString(b, d.Fingerprint)
	b = appendUvarint(b, d.DeltaSeq)
	b = appendUvarint(b, uint64(d.Size))
	b = appendUvarint(b, uint64(span))
	b = appendAliveBitmap(b, d.Alive)
	if d.DropFilters {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendUvarint(b, uint64(len(d.FilterUpdates)))
	prevSlot := int32(-1)
	for _, u := range d.FilterUpdates {
		if u.Slot < 0 || int(u.Slot) >= span {
			return 0, fmt.Errorf("odcodec: trace delta filter slot %d outside span %d", u.Slot, span)
		}
		if u.Slot <= prevSlot {
			return 0, fmt.Errorf("odcodec: trace delta filter slots not strictly ascending")
		}
		b = appendUvarint(b, uint64(u.Slot-prevSlot))
		prevSlot = u.Slot
		var err error
		if b, err = appendFilterSlot(b, u.Steps); err != nil {
			return 0, err
		}
	}
	b = appendUvarint(b, uint64(len(d.RemovedPairs)))
	var prevKey uint64
	for n, key := range d.RemovedPairs {
		i, j := int64(key>>32), int64(key&math.MaxUint32)
		if i >= j || j >= int64(span) {
			return 0, fmt.Errorf("odcodec: trace delta removes invalid pair key (%d,%d) for span %d", i, j, span)
		}
		if n == 0 {
			b = appendUvarint(b, key)
		} else {
			if key <= prevKey {
				return 0, fmt.Errorf("odcodec: trace delta removed keys not strictly ascending")
			}
			b = appendUvarint(b, key-prevKey)
		}
		prevKey = key
	}
	var err error
	if b, err = appendTracePairs(b, d.Pairs, span); err != nil {
		return 0, err
	}

	h := newHeader(kindTraceDelta, Version)
	crc := crc32.Update(0, crcTable, h)
	crc = crc32.Update(crc, crcTable, b)
	out := append(h, b...)
	out = append(out, newFooter(crc)...)

	f, err := os.OpenFile(filepath.Join(dir, TraceFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return 0, fmt.Errorf("odcodec: append trace delta: %w", err)
	}
	if _, err := f.Write(out); err != nil {
		f.Close()
		return 0, fmt.Errorf("odcodec: append trace delta: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, fmt.Errorf("odcodec: append trace delta: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("odcodec: append trace delta: %w", err)
	}
	return crc, nil
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

// ReadTrace loads and fully verifies the trace chain in dir,
// accumulating every delta frame into the final replay state. Returns
// (nil, nil) when no trace file exists; corruption anywhere in the
// chain — including a torn appended tail — is a *CorruptError. The
// caller checks the manifest digest and delta sequence — ReadTrace only
// validates the encoding.
func ReadTrace(dir string) (*TraceSet, error) {
	ts, _, err := ReadTraceChain(dir)
	return ts, err
}

// TraceChainInfo describes the physical shape of a trace chain.
type TraceChainInfo struct {
	// Frames is the chain length: 1 for a freshly written trace, +1 per
	// appended delta.
	Frames int
	// LastCRC is the footer CRC of the last frame — the value the next
	// AppendTraceDelta must link to.
	LastCRC uint32
	// Bytes is the file size.
	Bytes int64
}

// ReadTraceChain is ReadTrace plus the chain shape, which a reader
// hands on so the next update can append to the chain it loaded.
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
	var ts *TraceSet
	for off := 0; off < len(buf); {
		// The payload is self-delimiting, so the frame boundary is only
		// known after decoding; the CRC over the decoded extent must then
		// match the footer exactly where the decoder stopped. A flipped
		// byte either breaks decoding or moves/fails the CRC — both
		// reject. Decoded values are never used unless the whole chain
		// verifies.
		if len(buf)-off < headerSize+footerSize {
			return nil, info, corrupt(TraceFile, "truncated trace frame at offset %d", off)
		}
		h := buf[off : off+headerSize]
		if [4]byte(h[:4]) != magic {
			return nil, info, corrupt(TraceFile, "bad magic %q at offset %d", h[:4], off)
		}
		if v := h[4]; v < MinReadVersion || v > Version {
			return nil, info, corrupt(TraceFile, "unsupported format version %d (this binary reads %d..%d)", v, MinReadVersion, Version)
		}
		wantKind := byte(kindTrace)
		if off > 0 {
			wantKind = kindTraceDelta
		}
		if h[5] != wantKind {
			return nil, info, corrupt(TraceFile, "frame kind %d at offset %d, want %d", h[5], off, wantKind)
		}
		br := &byteReader{buf: buf[off+headerSize:], file: TraceFile}
		if off == 0 {
			if ts, err = decodeTraceBase(br); err != nil {
				return nil, info, err
			}
		} else {
			d, err := decodeTraceDelta(br)
			if err != nil {
				return nil, info, err
			}
			if d.PrevCRC != info.LastCRC {
				return nil, info, corrupt(TraceFile, "delta frame at offset %d links to CRC %08x, previous frame is %08x", off, d.PrevCRC, info.LastCRC)
			}
			if err := applyTraceDelta(ts, d); err != nil {
				return nil, info, err
			}
		}
		end := off + headerSize + br.pos
		if end+footerSize > len(buf) {
			return nil, info, corrupt(TraceFile, "truncated trace frame at offset %d", off)
		}
		crc := crc32.Checksum(buf[off:end], crcTable)
		if err := checkFooter(TraceFile, buf[end:end+footerSize], crc); err != nil {
			return nil, info, err
		}
		info.Frames++
		info.LastCRC = crc
		off = end + footerSize
	}
	if ts == nil {
		return nil, info, corrupt(TraceFile, "empty trace chain")
	}
	info.Bytes = int64(len(buf))
	return ts, info, nil
}

// decodeTraceBase decodes one full trace-set payload, advancing br to
// the frame's payload end.
func decodeTraceBase(br *byteReader) (*TraceSet, error) {
	var err error
	ts := &TraceSet{}
	if ts.ManifestDigest, err = br.str(); err != nil {
		return nil, err
	}
	if ts.Fingerprint, err = br.str(); err != nil {
		return nil, err
	}
	if ts.DeltaSeq, err = br.uvarint(); err != nil {
		return nil, err
	}
	size, err := br.count(maxCount)
	if err != nil {
		return nil, err
	}
	ts.Size = size
	span, err := br.count(maxCount)
	if err != nil {
		return nil, err
	}
	nBitmap := (span + 7) / 8
	if br.pos+nBitmap > len(br.buf) {
		return nil, corrupt(TraceFile, "alive bitmap of %d bytes overruns payload", nBitmap)
	}
	ts.Alive = make([]bool, span)
	for i := range ts.Alive {
		ts.Alive[i] = br.buf[br.pos+i/8]&(1<<(i%8)) != 0
	}
	br.pos += nBitmap
	if ts.Size > span {
		return nil, corrupt(TraceFile, "size %d exceeds span %d", ts.Size, span)
	}
	if br.pos >= len(br.buf) {
		return nil, corrupt(TraceFile, "missing filter-presence byte")
	}
	switch present := br.buf[br.pos]; present {
	case 0, 1:
		br.pos++
		if present == 1 {
			ts.Filters = make([][]TraceFilterStep, span)
			for i := range ts.Filters {
				if ts.Filters[i], err = readFilterSlot(br); err != nil {
					return nil, err
				}
			}
		}
	default:
		return nil, corrupt(TraceFile, "bad filter-presence byte %d", present)
	}
	if ts.Pairs, err = readTracePairs(br, span); err != nil {
		return nil, err
	}
	return ts, nil
}

// readFilterSlot decodes one slot's filter-bound trace (the inverse of
// appendFilterSlot): nil for an absent trace, else the steps.
func readFilterSlot(br *byteReader) ([]TraceFilterStep, error) {
	m, err := br.count(len(br.buf) - br.pos + 1)
	if err != nil {
		return nil, err
	}
	if m == 0 {
		return nil, nil
	}
	steps := make([]TraceFilterStep, m-1)
	for k := range steps {
		v, err := br.uvarint()
		if err != nil {
			return nil, err
		}
		u := v >> 1
		if u > math.MaxInt32 {
			return nil, corrupt(TraceFile, "filter union %d overflows int32", u)
		}
		steps[k] = TraceFilterStep{Shared: v&1 == 1, Union: int32(u)}
	}
	return steps, nil
}

// readTracePairs decodes a pair-trace list (the inverse of
// appendTracePairs).
func readTracePairs(br *byteReader, span int) ([]TracePair, error) {
	// Every pair costs at least 3 payload bytes (key delta + two
	// lengths), so the remaining bytes bound the count before any
	// allocation.
	nPairs, err := br.count(min(maxCount, (len(br.buf)-br.pos)/3+1))
	if err != nil {
		return nil, err
	}
	if nPairs == 0 {
		return nil, nil
	}
	pairs := make([]TracePair, nPairs)
	var prevKey uint64
	for n := range pairs {
		d, err := br.uvarint()
		if err != nil {
			return nil, err
		}
		key := d
		if n > 0 {
			if d == 0 {
				return nil, corrupt(TraceFile, "zero pair-key delta at pair %d", n)
			}
			key = prevKey + d
			if key < prevKey {
				return nil, corrupt(TraceFile, "pair-key overflow at pair %d", n)
			}
		}
		prevKey = key
		i, j := int64(key>>32), int64(key&math.MaxUint32)
		if i >= j || j >= int64(span) {
			return nil, corrupt(TraceFile, "pair key (%d,%d) invalid for span %d", i, j, span)
		}
		p := &pairs[n]
		p.Key = key
		for side, dst := range [2]*[]int32{&p.SimU, &p.ConU} {
			m, err := br.count(min(maxCount, len(br.buf)-br.pos))
			if err != nil {
				return nil, err
			}
			if m == 0 {
				continue
			}
			us := make([]int32, m)
			for k := range us {
				v, err := br.uvarint()
				if err != nil {
					return nil, err
				}
				if v > math.MaxInt32 {
					return nil, corrupt(TraceFile, "trace union %d overflows int32 (pair %d side %d)", v, n, side)
				}
				us[k] = int32(v)
			}
			*dst = us
		}
	}
	return pairs, nil
}

// decodeTraceDelta decodes one delta-frame payload, advancing br to
// the frame's payload end.
func decodeTraceDelta(br *byteReader) (*TraceDelta, error) {
	if br.pos+4 > len(br.buf) {
		return nil, corrupt(TraceFile, "delta frame too short for chain CRC")
	}
	d := &TraceDelta{PrevCRC: binary.LittleEndian.Uint32(br.buf[br.pos:])}
	br.pos += 4
	var err error
	if d.ManifestDigest, err = br.str(); err != nil {
		return nil, err
	}
	if d.Fingerprint, err = br.str(); err != nil {
		return nil, err
	}
	if d.DeltaSeq, err = br.uvarint(); err != nil {
		return nil, err
	}
	if d.Size, err = br.count(maxCount); err != nil {
		return nil, err
	}
	span, err := br.count(maxCount)
	if err != nil {
		return nil, err
	}
	nBitmap := (span + 7) / 8
	if br.pos+nBitmap > len(br.buf) {
		return nil, corrupt(TraceFile, "alive bitmap of %d bytes overruns payload", nBitmap)
	}
	d.Alive = make([]bool, span)
	for i := range d.Alive {
		d.Alive[i] = br.buf[br.pos+i/8]&(1<<(i%8)) != 0
	}
	br.pos += nBitmap
	if d.Size > span {
		return nil, corrupt(TraceFile, "size %d exceeds span %d", d.Size, span)
	}
	if br.pos >= len(br.buf) {
		return nil, corrupt(TraceFile, "missing drop-filters byte")
	}
	switch drop := br.buf[br.pos]; drop {
	case 0, 1:
		d.DropFilters = drop == 1
		br.pos++
	default:
		return nil, corrupt(TraceFile, "bad drop-filters byte %d", drop)
	}
	nUpd, err := br.count(min(span, len(br.buf)-br.pos+1))
	if err != nil {
		return nil, err
	}
	if d.DropFilters && nUpd > 0 {
		return nil, corrupt(TraceFile, "delta both drops filters and updates %d slots", nUpd)
	}
	if nUpd > 0 {
		d.FilterUpdates = make([]TraceFilterUpdate, nUpd)
		prevSlot := int64(-1)
		for i := range d.FilterUpdates {
			gap, err := br.uvarint()
			if err != nil {
				return nil, err
			}
			slot := prevSlot + int64(gap)
			if gap == 0 || slot >= int64(span) {
				return nil, corrupt(TraceFile, "filter-update slot %d invalid for span %d", slot, span)
			}
			prevSlot = slot
			d.FilterUpdates[i].Slot = int32(slot)
			if d.FilterUpdates[i].Steps, err = readFilterSlot(br); err != nil {
				return nil, err
			}
		}
	}
	nRm, err := br.count(min(maxCount, len(br.buf)-br.pos+1))
	if err != nil {
		return nil, err
	}
	if nRm > 0 {
		d.RemovedPairs = make([]uint64, nRm)
		var prevKey uint64
		for n := range d.RemovedPairs {
			g, err := br.uvarint()
			if err != nil {
				return nil, err
			}
			key := g
			if n > 0 {
				if g == 0 {
					return nil, corrupt(TraceFile, "zero removed-key delta at %d", n)
				}
				key = prevKey + g
				if key < prevKey {
					return nil, corrupt(TraceFile, "removed-key overflow at %d", n)
				}
			}
			prevKey = key
			i, j := int64(key>>32), int64(key&math.MaxUint32)
			if i >= j || j >= int64(span) {
				return nil, corrupt(TraceFile, "removed pair key (%d,%d) invalid for span %d", i, j, span)
			}
			d.RemovedPairs[n] = key
		}
	}
	if d.Pairs, err = readTracePairs(br, span); err != nil {
		return nil, err
	}
	return d, nil
}

// applyTraceDelta folds one decoded delta into the accumulated state.
// Every structural mismatch — shrinking span, a delta sequence moving
// backwards, removing a pair the chain never recorded — rejects the
// chain as corrupt.
func applyTraceDelta(ts *TraceSet, d *TraceDelta) error {
	span := len(d.Alive)
	if span < len(ts.Alive) {
		return corrupt(TraceFile, "delta shrinks span %d to %d", len(ts.Alive), span)
	}
	if d.DeltaSeq < ts.DeltaSeq {
		return corrupt(TraceFile, "delta rewinds delta sequence %d to %d", ts.DeltaSeq, d.DeltaSeq)
	}
	ts.ManifestDigest = d.ManifestDigest
	ts.Fingerprint = d.Fingerprint
	ts.DeltaSeq = d.DeltaSeq
	ts.Size = d.Size
	ts.Alive = d.Alive

	switch {
	case d.DropFilters:
		ts.Filters = nil
	case ts.Filters == nil && len(d.FilterUpdates) == 0:
		// no filter traces before or after
	default:
		grown := make([][]TraceFilterStep, span)
		copy(grown, ts.Filters)
		ts.Filters = grown
		for _, u := range d.FilterUpdates {
			ts.Filters[u.Slot] = u.Steps
		}
	}

	if len(d.RemovedPairs) > 0 {
		kept := make([]TracePair, 0, len(ts.Pairs))
		ri := 0
		for _, p := range ts.Pairs {
			if ri < len(d.RemovedPairs) && d.RemovedPairs[ri] == p.Key {
				ri++
				continue
			}
			kept = append(kept, p)
		}
		if ri != len(d.RemovedPairs) {
			return corrupt(TraceFile, "delta removes %d pairs the chain never recorded", len(d.RemovedPairs)-ri)
		}
		ts.Pairs = kept
	}
	if len(d.Pairs) > 0 {
		merged := make([]TracePair, 0, len(ts.Pairs)+len(d.Pairs))
		ui := 0
		for _, p := range ts.Pairs {
			for ui < len(d.Pairs) && d.Pairs[ui].Key < p.Key {
				merged = append(merged, d.Pairs[ui])
				ui++
			}
			if ui < len(d.Pairs) && d.Pairs[ui].Key == p.Key {
				merged = append(merged, d.Pairs[ui])
				ui++
				continue
			}
			merged = append(merged, p)
		}
		merged = append(merged, d.Pairs[ui:]...)
		ts.Pairs = merged
	}
	return nil
}
