// Package odcodec is the versioned binary on-disk format for finalized
// OD stores: object descriptions plus the per-type value indexes built
// from them, laid out so a store round-trips through disk (Writer) and
// serves queries straight from the segment files (Reader) without ever
// materializing the full index in memory.
//
// A snapshot is a directory of five segment files:
//
//	manifest.odx  meta record: fingerprint, θtuple, OD count, delta
//	              watermark, tombstones, and the size + CRC of every
//	              data segment. Written last — its presence commits the
//	              snapshot, so a crashed writer leaves no valid snapshot.
//	strings.odx   shared string heap. Every tuple value, name, type and
//	              object path is stored once; references are varint
//	              (offset, length) handles into the raw heap, so a
//	              string that is a substring of an already-stored one
//	              can share its bytes (the writer dedups exact repeats
//	              and opportunistically shares prefixes/suffixes with
//	              the most recently appended string).
//	ods.odx       one record per OD (string-heap handles + varints)
//	              with a fixed-width offset table for random access by
//	              ID.
//	index.odx     per-type segments: the type's distinct values in
//	              ascending order, each a string-heap handle with its
//	              rune length and a delta-varint posting list of object
//	              IDs, followed by a directory with per-type stats and
//	              a sparse value index for point lookups. Value bytes
//	              live only in the heap; decoding is lazy per lookup.
//	neighbor.odx  per-type deletion-neighborhood buckets (the FastSS
//	              index MemStore builds in memory): for every type
//	              whose edit budget is 0..2, each deletion variant maps
//	              to the ordinals of the values it could match. Variants
//	              are front-coded against their predecessor with sparse
//	              restart points, so SimilarValues is a handful of point
//	              lookups instead of a segment scan.
//
// A snapshot may carry a trace segment (trace.odx, see trace.go)
// persisting the incremental-replay state of the run that wrote it,
// bound to the manifest by digest and to the delta segments by
// sequence; it is a pure cache whose absence or staleness only costs a
// full recompare on the next update.
//
// A mutated store additionally appends numbered delta segments
// (delta-NNNNNNNN.odx, see delta.go) carrying post-Finalize
// AddAfterFinalize/Remove batches; the manifest's DeltaSeq watermark
// says which of them are already folded into the base segments, and
// od.Save merges the rest back into a fresh base.
//
// A partitioned snapshot (od.SavePartitioned) is a directory of
// per-partition segment sets under part-NNNNN/ plus a coordinator
// snapshot, committed by a federation manifest (federation.odx, see
// federation.go) recording the partition count, routing hash seed and
// per-partition fingerprints.
//
// Every file is framed identically: an 8-byte header (magic, format
// version, segment kind) and an 8-byte footer (CRC-32 over header and
// payload, trailing magic). Open verifies the framing and checksums of
// all four files before answering any query; torn, truncated or
// bit-flipped snapshots are rejected with a *CorruptError rather than
// decoded into garbage.
package odcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Version is the on-disk format version snapshots are written at, and
// the only one readers accept: a snapshot written by a future binary —
// or by an older one — is refused rather than misdecoded, and a rebuild
// is always possible because snapshots are rebuildable caches, not
// archives.
// Version 2 added the manifest's delta watermark and the append-only
// delta segments that carry post-Finalize mutations; version 3 added
// the manifest's tombstone list (IDs removed but still occupying their
// slot, written by the in-place merge of a mutated DiskStore) and the
// federation manifest of partitioned snapshots; version 4 turned the
// string table into a raw shared heap addressed by (offset, length)
// handles, moved index value bytes into that heap, and added the
// persisted deletion-neighborhood segment (neighbor.odx) with a
// fourth manifest stamp.
const Version = 4

// Segment kinds, one per file.
const (
	kindManifest   = 1
	kindStrings    = 2
	kindODs        = 3
	kindIndex      = 4
	kindDelta      = 5
	kindFederation = 6
	kindNeighbor   = 7
	// 8 to 11 framed trace segments in earlier layouts: 8 and 9 before
	// every frame recorded its delta sequence, 10 (a whole state) and 11
	// (a delta against it) before every frame became a patch. A file
	// carrying them is refused like any other foreign kind, and the next
	// update recompares fully and rewrites the trace.
	kindTrace = 12
)

// Segment file names within a snapshot directory. Delta segments are
// numbered delta-NNNNNNNN.odx; see DeltaFile.
const (
	ManifestFile = "manifest.odx"
	StringsFile  = "strings.odx"
	ODsFile      = "ods.odx"
	IndexFile    = "index.odx"
	NeighborFile = "neighbor.odx"
)

const (
	// numSegments is how many stamped data segments a snapshot has.
	numSegments = 4
	headerSize  = 8
	footerSize  = 8
	// sparseEvery is the sparse-index stride of the per-type value
	// directory: one directory entry per this many values bounds a point
	// lookup's scan to at most sparseEvery entries.
	sparseEvery = 64
	// maxStringLen caps any decoded length field, so a corrupt varint
	// cannot trigger a giant allocation before the CRC check would have
	// caught it.
	maxStringLen = 1 << 28
	maxCount     = 1 << 28
)

var (
	magic    = [4]byte{'O', 'D', 'G', 'X'}
	magicEnd = [4]byte{'X', 'G', 'D', 'O'}
)

// ErrNoSnapshot is returned by Open when the directory holds no
// committed snapshot (no manifest).
var ErrNoSnapshot = errors.New("odcodec: no snapshot in directory")

// CorruptError reports a snapshot that exists but fails validation:
// bad magic, unsupported version, checksum mismatch, truncation, or an
// impossible field while decoding.
type CorruptError struct {
	File   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("odcodec: %s: corrupt snapshot: %s", e.File, e.Reason)
}

func corrupt(file, format string, args ...any) error {
	return &CorruptError{File: file, Reason: fmt.Sprintf(format, args...)}
}

// IsCorrupt reports whether err signals a corrupt (vs missing) snapshot.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// Tuple is the codec's view of one OD tuple.
type Tuple struct {
	Value string
	Name  string
	Type  string
}

// Meta is the manifest record of a snapshot.
type Meta struct {
	// Fingerprint identifies the corpus + configuration the indexes were
	// built from; the codec treats it as an opaque string. Empty means
	// the snapshot carries no provenance and can never warm-start.
	Fingerprint string
	// Theta is the θtuple the similarity tables were built for.
	Theta float64
	// NumODs is the object count.
	NumODs int
	// DeltaSeq is the delta watermark: the highest delta-segment
	// sequence number already folded into the base segments. Delta files
	// with sequence numbers at or below it are stale leftovers of a
	// merge and must be ignored; ReadDeltas enforces that the live ones
	// continue contiguously from DeltaSeq+1, so a lost delta file is
	// detected instead of silently skipped.
	DeltaSeq uint64
	// Tombstones lists removed object IDs that still occupy their slot
	// in the OD segment, strictly ascending. The in-place merge of a
	// mutated DiskStore writes them so the ID space survives the merge
	// unrenumbered (the store stays usable in process); a reader treats
	// them as removed — dead records, postings never reference them. Nil
	// for compact snapshots.
	Tombstones []int32
}

// TypeMeta describes one per-type index segment.
type TypeMeta struct {
	Name      string
	MaxLen    int // longest value in runes
	Budget    int // strict edit budget derived from MaxLen (may be -1)
	NumValues int
}

// segmentStamp binds a data segment into the manifest: expected file
// size and CRC, so a manifest can only commit the exact files the
// writer produced.
type segmentStamp struct {
	size int64
	crc  uint32
}

var crcTable = crc32.IEEETable

// ---- shared low-level encoding helpers ----

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// byteReader tracks a position while decoding from an in-memory slice.
type byteReader struct {
	buf  []byte
	pos  int
	file string // for error attribution
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, corrupt(r.file, "bad varint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *byteReader) count(cap int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(cap) {
		return 0, corrupt(r.file, "count %d exceeds limit %d", v, cap)
	}
	return int(v), nil
}

// presence decodes a 0/1 presence byte announcing an optional section;
// a missing or other byte is corruption.
func (r *byteReader) presence(section string) (bool, error) {
	if r.pos >= len(r.buf) {
		return false, corrupt(r.file, "payload ends before %s section", section)
	}
	b := r.buf[r.pos]
	if b > 1 {
		return false, corrupt(r.file, "bad %s presence byte %d", section, b)
	}
	r.pos++
	return b == 1, nil
}

func (r *byteReader) str() (string, error) {
	n, err := r.count(maxStringLen)
	if err != nil {
		return "", err
	}
	if r.pos+n > len(r.buf) {
		return "", corrupt(r.file, "string of %d bytes overruns payload", n)
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s, nil
}

func (r *byteReader) float64() (float64, error) {
	if r.pos+8 > len(r.buf) {
		return 0, corrupt(r.file, "float64 overruns payload")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return v, nil
}

// uvarintAt decodes the varint at b[pos:] and returns it with the
// position after it, -1 when it is malformed or runs off b.
func uvarintAt(b []byte, pos int) (uint64, int) {
	v, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return 0, -1
	}
	return v, pos + n
}

// decodePostings expands a delta-varint posting list (first ID, then
// ascending gaps) back into absolute IDs.
func decodePostings(r *byteReader, n int) ([]int32, error) {
	if n == 0 {
		return nil, nil
	}
	// Every ID takes at least one byte: a corrupt count sizes nothing.
	if n > len(r.buf)-r.pos {
		return nil, corrupt(r.file, "%d posting ids in %d bytes", n, len(r.buf)-r.pos)
	}
	out, pos, err := appendPostingIDs(make([]int32, 0, n), r.buf, r.pos, n, r.file)
	if err != nil {
		return nil, err
	}
	r.pos = pos
	return out, nil
}

// appendPostingIDs decodes n delta-varint IDs at b[pos:] onto dst and
// returns the position after them.
func appendPostingIDs(dst []int32, b []byte, pos, n int, file string) ([]int32, int, error) {
	var prev uint64
	for i := 0; i < n; i++ {
		d, next := uvarintAt(b, pos)
		if next < 0 {
			return dst, pos, corrupt(file, "bad varint at offset %d", pos)
		}
		pos = next
		if prev += d; prev > math.MaxInt32 {
			return dst, pos, corrupt(file, "posting id %d overflows int32", prev)
		}
		dst = append(dst, int32(prev))
	}
	return dst, pos, nil
}

// appendPostings encodes sorted IDs as delta varints.
func appendPostings(b []byte, ids []int32) []byte {
	for i, id := range ids {
		if i == 0 {
			b = appendUvarint(b, uint64(uint32(id)))
		} else {
			b = appendUvarint(b, uint64(uint32(id-ids[i-1])))
		}
	}
	return b
}

// budgetToWire biases an edit budget (>= -1) into a uvarint.
func budgetToWire(budget int) uint64 { return uint64(budget + 1) }

func budgetFromWire(v uint64) int { return int(v) - 1 }

// verifyFraming checks a segment file's header and trailing magic and
// returns the payload size. The CRC itself is verified separately
// (streamed for data segments, in-memory for the manifest).
func verifyFraming(file string, size int64, header []byte, kind byte) (int64, error) {
	if size < headerSize+footerSize {
		return 0, corrupt(file, "file too short (%d bytes)", size)
	}
	if [4]byte(header[:4]) != magic {
		return 0, corrupt(file, "bad magic %q", header[:4])
	}
	if v := header[4]; v != Version {
		return 0, corrupt(file, "unsupported format version %d (this binary reads %d)", v, Version)
	}
	if header[5] != kind {
		return 0, corrupt(file, "segment kind %d, want %d", header[5], kind)
	}
	return size - headerSize - footerSize, nil
}

func newHeader(kind, version byte) []byte {
	h := make([]byte, headerSize)
	copy(h, magic[:])
	h[4] = version
	h[5] = kind
	return h
}

func newFooter(crc uint32) []byte {
	f := make([]byte, footerSize)
	binary.LittleEndian.PutUint32(f, crc)
	copy(f[4:], magicEnd[:])
	return f
}

func checkFooter(file string, footer []byte, wantCRC uint32) error {
	if [4]byte(footer[4:8]) != magicEnd {
		return corrupt(file, "bad trailing magic %q (truncated?)", footer[4:8])
	}
	if got := binary.LittleEndian.Uint32(footer); got != wantCRC {
		return corrupt(file, "checksum mismatch: stored %08x, computed %08x", got, wantCRC)
	}
	return nil
}

// readFramedFile loads an entire segment file, verifies framing and CRC,
// and returns the payload. Used for the small manifest; data segments
// are verified streaming and then served by offset.
func readFramedFile(path, name string, kind byte, r io.ReaderAt, size int64) ([]byte, error) {
	if size < headerSize+footerSize {
		return nil, corrupt(name, "file too short (%d bytes)", size)
	}
	buf := make([]byte, size)
	if _, err := r.ReadAt(buf, 0); err != nil {
		return nil, fmt.Errorf("odcodec: read %s: %w", path, err)
	}
	payloadLen, err := verifyFraming(name, size, buf[:headerSize], kind)
	if err != nil {
		return nil, err
	}
	crc := crc32.Checksum(buf[:headerSize+payloadLen], crcTable)
	if err := checkFooter(name, buf[headerSize+payloadLen:], crc); err != nil {
		return nil, err
	}
	return buf[headerSize : headerSize+payloadLen], nil
}
