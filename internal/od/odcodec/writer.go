package odcodec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/strdist"
)

// Writer streams a finalized store into a snapshot directory. Usage:
//
//	w, _ := NewWriter(dir)
//	for each OD in ID order:        w.AddOD(object, source, tuples)
//	for each type (ascending name): w.BeginType(name, maxLen, budget)
//	    for each value (ascending): w.AddValue(value, objects)
//	w.Commit(meta)                  // or w.Abort() on failure
//
// Data is written through to temporary files as it arrives, so the
// writer's memory stays bounded by the string-dedup table, the OD
// offset table and one type's deletion-neighborhood buckets. Commit seals the segment footers, renames the
// files into place and writes the manifest last; until the manifest
// exists the directory does not contain a snapshot, so a crash
// mid-write can never be mistaken for a valid one.
//
// The deletion-neighborhood segment is derived transparently: for any
// type whose edit budget is 0..2 (the same criterion MemStore uses to
// build its in-memory index), AddValue feeds the value's deletion
// variants into per-type buckets and BeginType/Commit flush them to
// neighbor.odx, so every snapshot path — Finalize, export, merge —
// persists the index without caring that it exists.
type Writer struct {
	dir     string
	err     error // sticky: first failure poisons the writer
	done    bool
	strSeg  *segWriter
	odSeg   *segWriter
	idxSeg  *segWriter
	nbrSeg  *segWriter
	strOffs map[string]strHandle

	// heap-tail sharing state: the most recently appended fresh string
	// and its offset, checked for substring/extension sharing before new
	// bytes are written.
	tailOff uint64
	tailStr string

	odOffsets []uint64

	types     []dirEntry
	lastValue string // previous AddValue, for order enforcement

	nbrBuckets map[string][]int32 // current type's deletion variants
	nbrTypes   []nbrDirEntry

	scratch []byte
}

// strHandle locates one string in the heap: a raw (payload offset, byte
// length) pair.
type strHandle struct {
	off uint64
	n   uint64
}

// dirEntry accumulates one type's directory record while its segment is
// written.
type dirEntry struct {
	meta   TypeMeta
	segOff uint64
	segLen uint64
	sparse []sparseRef
}

// nbrDirEntry accumulates one type's neighbor-segment directory record.
type nbrDirEntry struct {
	name       string
	budget     int
	numBuckets int
	segOff     uint64
	segLen     uint64
	sparse     []sparseRef
}

type sparseRef struct {
	value string
	off   uint64 // entry offset relative to the type's segment start
}

// NewWriter starts a snapshot in dir at the current format version,
// creating the directory if needed.
func NewWriter(dir string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("odcodec: %w", err)
	}
	w := &Writer{dir: dir, strOffs: map[string]strHandle{}}
	for _, seg := range []struct {
		dst  **segWriter
		name string
		kind byte
	}{
		{&w.strSeg, StringsFile, kindStrings},
		{&w.odSeg, ODsFile, kindODs},
		{&w.idxSeg, IndexFile, kindIndex},
		{&w.nbrSeg, NeighborFile, kindNeighbor},
	} {
		var err error
		if *seg.dst, err = newSegWriter(filepath.Join(dir, seg.name), seg.kind); err != nil {
			w.Abort()
			return nil, err
		}
	}
	return w, nil
}

// intern stores s in the string heap once and returns its handle.
//
// The heap is raw bytes and the handle may point inside a previously
// stored string: an exact repeat never writes bytes, a
// string contained in the most recently appended one shares its bytes,
// and a string extending the current heap tail appends only the new
// suffix. The sharing window is deliberately one string deep — an O(1)
// check per intern that still catches the common XML patterns (repeated
// values, values nested in the value interned just before).
func (w *Writer) intern(s string) strHandle {
	if h, ok := w.strOffs[s]; ok {
		return h
	}
	var h strHandle
	switch {
	case s == "":
		// Zero-length handle at offset 0; no bytes needed.
	case w.tailStr != "" && strings.Contains(w.tailStr, s):
		h = strHandle{off: w.tailOff + uint64(strings.Index(w.tailStr, s)), n: uint64(len(s))}
	case w.tailStr != "" && strings.HasPrefix(s, w.tailStr) && w.tailOff+uint64(len(w.tailStr)) == w.strSeg.n:
		// s extends the heap tail: append only the remainder.
		w.setErr(w.strSeg.write([]byte(s[len(w.tailStr):])))
		h = strHandle{off: w.tailOff, n: uint64(len(s))}
		w.tailStr = s
	default:
		h = strHandle{off: w.strSeg.n, n: uint64(len(s))}
		w.setErr(w.strSeg.write([]byte(s)))
		w.tailOff, w.tailStr = h.off, s
	}
	w.strOffs[s] = h
	return h
}

// appendHandle encodes a heap reference as an (offset, length) pair.
func appendHandle(b []byte, h strHandle) []byte {
	return appendUvarint(appendUvarint(b, h.off), h.n)
}

// AddOD appends one object description; the record's position in the
// sequence of AddOD calls is its ID.
func (w *Writer) AddOD(object string, source int32, tuples []Tuple) error {
	if w.err != nil {
		return w.err
	}
	if source < 0 {
		return w.fail(fmt.Errorf("odcodec: negative source %d", source))
	}
	refs := make([]strHandle, 0, 1+3*len(tuples))
	refs = append(refs, w.intern(object))
	for _, t := range tuples {
		refs = append(refs, w.intern(t.Value), w.intern(t.Name), w.intern(t.Type))
	}
	if w.err != nil {
		return w.err
	}
	b := appendHandle(w.scratch[:0], refs[0])
	b = appendUvarint(b, uint64(uint32(source)))
	b = appendUvarint(b, uint64(len(tuples)))
	for _, r := range refs[1:] {
		b = appendHandle(b, r)
	}
	w.odOffsets = append(w.odOffsets, w.odSeg.n)
	w.scratch = b
	return w.fail(w.odSeg.write(b))
}

// BeginType opens the index segment of one real-world type. Types must
// arrive in ascending name order, after all AddOD calls.
func (w *Writer) BeginType(name string, maxLen, budget int) error {
	if w.err != nil {
		return w.err
	}
	if budget < -1 {
		return w.fail(fmt.Errorf("odcodec: type %q: edit budget %d below -1", name, budget))
	}
	if n := len(w.types); n > 0 && name <= w.types[n-1].meta.Name {
		return w.fail(fmt.Errorf("odcodec: type %q not in ascending order after %q", name, w.types[n-1].meta.Name))
	}
	w.closeType()
	w.types = append(w.types, dirEntry{
		meta:   TypeMeta{Name: name, MaxLen: maxLen, Budget: budget},
		segOff: w.idxSeg.n,
	})
	if w.neighborActive() {
		w.nbrBuckets = map[string][]int32{}
	}
	return nil
}

// neighborActive reports whether the current type persists a
// deletion-neighborhood index: an edit budget the FastSS scheme stays
// tractable for (MemStore uses the same 0..2 criterion).
func (w *Writer) neighborActive() bool {
	if len(w.types) == 0 {
		return false
	}
	b := w.types[len(w.types)-1].meta.Budget
	return b >= 0 && b <= 2
}

// AddValue appends one distinct value of the current type with its
// sorted posting list. Values must arrive in ascending order.
func (w *Writer) AddValue(value string, objects []int32) error {
	if w.err != nil {
		return w.err
	}
	if len(w.types) == 0 {
		return w.fail(fmt.Errorf("odcodec: AddValue before BeginType"))
	}
	cur := &w.types[len(w.types)-1]
	if cur.meta.NumValues > 0 && value <= w.lastValue {
		return w.fail(fmt.Errorf("odcodec: type %q: value %q not in ascending order", cur.meta.Name, value))
	}
	w.lastValue = value
	for i := 1; i < len(objects); i++ {
		if objects[i] <= objects[i-1] {
			return w.fail(fmt.Errorf("odcodec: type %q value %q: posting list not strictly ascending", cur.meta.Name, value))
		}
	}
	if cur.meta.NumValues%sparseEvery == 0 {
		cur.sparse = append(cur.sparse, sparseRef{value: value, off: w.idxSeg.n - cur.segOff})
	}
	ordinal := int32(cur.meta.NumValues)
	cur.meta.NumValues++

	postings := appendPostings(nil, objects)
	b := appendHandle(w.scratch[:0], w.intern(value))
	b = appendUvarint(b, uint64(runeLen(value)))
	b = appendUvarint(b, uint64(len(objects)))
	b = appendUvarint(b, uint64(len(postings)))
	b = append(b, postings...)
	w.scratch = b
	if err := w.fail(w.idxSeg.write(b)); err != nil {
		return err
	}
	if w.neighborActive() {
		for _, variant := range strdist.DeletionVariants(value, cur.meta.Budget) {
			w.nbrBuckets[variant] = append(w.nbrBuckets[variant], ordinal)
		}
	}
	return nil
}

// closeType seals the current type's segment length and flushes its
// neighbor buckets.
func (w *Writer) closeType() {
	n := len(w.types)
	if n == 0 {
		return
	}
	w.types[n-1].segLen = w.idxSeg.n - w.types[n-1].segOff
	w.lastValue = ""
	if w.neighborActive() {
		w.flushNeighborType(&w.types[n-1])
	}
	w.nbrBuckets = nil
}

// flushNeighborType writes one type's deletion-variant buckets: variants
// in ascending order, front-coded against their predecessor (shared
// byte-prefix length + remainder) with a full restart at every sparse
// directory entry, each followed by its delta-varint value ordinals.
func (w *Writer) flushNeighborType(cur *dirEntry) {
	variants := make([]string, 0, len(w.nbrBuckets))
	for v := range w.nbrBuckets {
		variants = append(variants, v)
	}
	sort.Strings(variants)
	e := nbrDirEntry{
		name:       cur.meta.Name,
		budget:     cur.meta.Budget,
		numBuckets: len(variants),
		segOff:     w.nbrSeg.n,
	}
	prev := ""
	for i, variant := range variants {
		var b []byte
		if i%sparseEvery == 0 {
			e.sparse = append(e.sparse, sparseRef{value: variant, off: w.nbrSeg.n - e.segOff})
			b = appendString(w.scratch[:0], variant)
		} else {
			p := sharedPrefixLen(prev, variant)
			b = appendUvarint(w.scratch[:0], uint64(p))
			b = appendUvarint(b, uint64(len(variant)-p))
			b = append(b, variant[p:]...)
		}
		prev = variant
		ords := w.nbrBuckets[variant]
		b = appendUvarint(b, uint64(len(ords)))
		b = appendPostings(b, ords)
		w.scratch = b
		if w.setErr(w.nbrSeg.write(b)); w.err != nil {
			return
		}
	}
	e.segLen = w.nbrSeg.n - e.segOff
	w.nbrTypes = append(w.nbrTypes, e)
}

// sharedPrefixLen returns the length of the longest common byte prefix.
func sharedPrefixLen(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// Commit writes the index and neighbor directories, the OD offset
// table, the segment footers and finally the manifest, then renames
// everything into place. meta.NumODs is derived from the AddOD calls
// and may be left zero.
func (w *Writer) Commit(meta Meta) error {
	if w.err != nil {
		return w.err
	}
	if w.done {
		return fmt.Errorf("odcodec: Commit called twice")
	}
	meta.NumODs = len(w.odOffsets)
	w.closeType()

	// Index directory + trailing directory offset.
	dirOff := w.idxSeg.n
	b := appendUvarint(w.scratch[:0], uint64(len(w.types)))
	for _, t := range w.types {
		b = appendString(b, t.meta.Name)
		b = appendUvarint(b, uint64(t.meta.MaxLen))
		b = appendUvarint(b, budgetToWire(t.meta.Budget))
		b = appendUvarint(b, uint64(t.meta.NumValues))
		b = appendUvarint(b, t.segOff)
		b = appendUvarint(b, t.segLen)
		b = appendUvarint(b, uint64(len(t.sparse)))
		for _, s := range t.sparse {
			b = appendString(b, s.value)
			b = appendUvarint(b, s.off)
		}
	}
	b = binary.LittleEndian.AppendUint64(b, dirOff)
	if err := w.fail(w.idxSeg.write(b)); err != nil {
		return err
	}

	// Neighbor directory + trailing directory offset.
	nbrDirOff := w.nbrSeg.n
	b = appendUvarint(w.scratch[:0], uint64(len(w.nbrTypes)))
	for _, t := range w.nbrTypes {
		b = appendString(b, t.name)
		b = appendUvarint(b, budgetToWire(t.budget))
		b = appendUvarint(b, uint64(t.numBuckets))
		b = appendUvarint(b, t.segOff)
		b = appendUvarint(b, t.segLen)
		b = appendUvarint(b, uint64(len(t.sparse)))
		for _, s := range t.sparse {
			b = appendString(b, s.value)
			b = appendUvarint(b, s.off)
		}
	}
	b = binary.LittleEndian.AppendUint64(b, nbrDirOff)
	if err := w.fail(w.nbrSeg.write(b)); err != nil {
		return err
	}

	// OD offset table + trailing table offset.
	tableOff := w.odSeg.n
	b = w.scratch[:0]
	for _, off := range w.odOffsets {
		b = binary.LittleEndian.AppendUint64(b, off)
	}
	b = binary.LittleEndian.AppendUint64(b, tableOff)
	if err := w.fail(w.odSeg.write(b)); err != nil {
		return err
	}

	segs := []*segWriter{w.strSeg, w.odSeg, w.idxSeg, w.nbrSeg}
	stamps := make([]segmentStamp, len(segs))
	for i, seg := range segs {
		st, err := seg.finish()
		if err != nil {
			return w.fail(err)
		}
		stamps[i] = st
	}
	// Retract any previous snapshot before touching its segments: from
	// here until the new manifest lands, the directory reads as "no
	// snapshot" (ErrNoSnapshot), never as a corrupt mix of old manifest
	// and new segments. A crash mid-commit therefore loses the old
	// snapshot — unavoidable when rebuilding in place — but never
	// leaves an invalid one.
	if err := os.Remove(filepath.Join(w.dir, ManifestFile)); err != nil && !os.IsNotExist(err) {
		return w.fail(fmt.Errorf("odcodec: %w", err))
	}
	for _, seg := range segs {
		if err := os.Rename(seg.path+tmpSuffix, seg.path); err != nil {
			return w.fail(fmt.Errorf("odcodec: %w", err))
		}
	}
	if err := writeManifest(w.dir, meta, stamps); err != nil {
		return w.fail(err)
	}
	w.done = true
	return nil
}

// Abort discards the partially written snapshot. Safe to call after
// Commit (no-op) or after an error.
func (w *Writer) Abort() {
	for _, seg := range []*segWriter{w.strSeg, w.odSeg, w.idxSeg, w.nbrSeg} {
		if seg == nil {
			continue
		}
		seg.close()
		if !w.done {
			os.Remove(seg.path + tmpSuffix)
		}
	}
}

func (w *Writer) setErr(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

func (w *Writer) fail(err error) error {
	w.setErr(err)
	return w.err
}

// runeLen is len([]rune(s)) without the intermediate slice.
func runeLen(s string) int {
	n := 0
	for range s {
		n++
	}
	return n
}

const tmpSuffix = ".tmp"

// segWriter writes one framed segment file: header first, payload
// through a buffered writer with a running CRC, footer on finish.
type segWriter struct {
	path string
	f    *os.File
	bw   *bufio.Writer
	crc  uint32
	n    uint64 // payload bytes written
}

func newSegWriter(path string, kind byte) (*segWriter, error) {
	f, err := os.Create(path + tmpSuffix)
	if err != nil {
		return nil, fmt.Errorf("odcodec: %w", err)
	}
	w := &segWriter{path: path, f: f, bw: bufio.NewWriterSize(f, 1<<16)}
	h := newHeader(kind, Version)
	w.crc = crc32.Update(0, crcTable, h)
	if _, err := w.bw.Write(h); err != nil {
		w.close()
		return nil, fmt.Errorf("odcodec: %w", err)
	}
	return w, nil
}

func (w *segWriter) write(b []byte) error {
	w.crc = crc32.Update(w.crc, crcTable, b)
	w.n += uint64(len(b))
	if _, err := w.bw.Write(b); err != nil {
		return fmt.Errorf("odcodec: write %s: %w", w.path, err)
	}
	return nil
}

// finish writes the footer, flushes, syncs and closes the file,
// returning its committed stamp. The sync orders segment durability
// before the manifest rename that commits them.
func (w *segWriter) finish() (segmentStamp, error) {
	if _, err := w.bw.Write(newFooter(w.crc)); err != nil {
		return segmentStamp{}, fmt.Errorf("odcodec: write %s: %w", w.path, err)
	}
	if err := w.bw.Flush(); err != nil {
		return segmentStamp{}, fmt.Errorf("odcodec: flush %s: %w", w.path, err)
	}
	if err := w.f.Sync(); err != nil {
		return segmentStamp{}, fmt.Errorf("odcodec: sync %s: %w", w.path, err)
	}
	if err := w.f.Close(); err != nil {
		return segmentStamp{}, fmt.Errorf("odcodec: close %s: %w", w.path, err)
	}
	w.f = nil
	return segmentStamp{size: int64(headerSize + w.n + footerSize), crc: w.crc}, nil
}

func (w *segWriter) close() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
}

// writeManifest encodes and atomically installs the manifest, the
// commit point of a snapshot.
func writeManifest(dir string, meta Meta, stamps []segmentStamp) error {
	if len(stamps) != numSegments {
		return fmt.Errorf("odcodec: %d segment stamps, want %d", len(stamps), numSegments)
	}
	for i, id := range meta.Tombstones {
		if id < 0 || int(id) >= meta.NumODs {
			return fmt.Errorf("odcodec: tombstone %d outside [0,%d)", id, meta.NumODs)
		}
		if i > 0 && id <= meta.Tombstones[i-1] {
			return fmt.Errorf("odcodec: tombstones not strictly ascending at %d", id)
		}
	}
	b := appendString(nil, meta.Fingerprint)
	b = appendFloat64(b, meta.Theta)
	b = appendUvarint(b, uint64(meta.NumODs))
	b = appendUvarint(b, meta.DeltaSeq)
	b = appendUvarint(b, uint64(len(meta.Tombstones)))
	b = appendPostings(b, meta.Tombstones)
	b = appendUvarint(b, 0) // no filter-value list (see readManifest)
	for _, st := range stamps {
		b = appendUvarint(b, uint64(st.size))
		b = binary.LittleEndian.AppendUint32(b, st.crc)
	}

	h := newHeader(kindManifest, Version)
	crc := crc32.Update(0, crcTable, h)
	crc = crc32.Update(crc, crcTable, b)
	out := append(h, b...)
	out = append(out, newFooter(crc)...)

	path := filepath.Join(dir, ManifestFile)
	f, err := os.Create(path + tmpSuffix)
	if err != nil {
		return fmt.Errorf("odcodec: %w", err)
	}
	if _, err := f.Write(out); err != nil {
		f.Close()
		return fmt.Errorf("odcodec: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("odcodec: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("odcodec: %w", err)
	}
	if err := os.Rename(path+tmpSuffix, path); err != nil {
		return fmt.Errorf("odcodec: %w", err)
	}
	// Any existing trace segment chained to the previous manifest is now
	// stale, but it is NOT removed here: its manifest digest no longer
	// matches, so od rejects it, and the update that merged rewrites it
	// right after this commit.
	// Make the commit point itself durable (see syncDir in delta.go):
	// without it a crash could roll back to the previous manifest — a
	// detectable state, but one that silently discards the commit.
	return syncDir(dir)
}

// UpdateMeta rewrites an existing snapshot's manifest with a new
// fingerprint, keeping θ, the OD count, the delta watermark, the
// tombstones and the segment stamps from disk. This is how a snapshot
// written during Finalize (before the corpus fingerprint is known) is
// stamped with provenance afterwards without rewriting the data
// segments.
func UpdateMeta(dir, fingerprint string) error {
	meta, stamps, err := readManifest(dir)
	if err != nil {
		return err
	}
	meta.Fingerprint = fingerprint
	return writeManifest(dir, meta, stamps)
}
