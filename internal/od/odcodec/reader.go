package odcodec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// MmapMode selects how segment files are accessed.
type MmapMode int

const (
	// MmapAuto memory-maps the segments when the platform supports it
	// and silently falls back to positioned reads when it does not.
	MmapAuto MmapMode = iota
	// MmapOff forces positioned reads (pread), the portable path and the
	// test seam for it.
	MmapOff
)

// OpenOptions configures OpenWith.
type OpenOptions struct {
	Mmap MmapMode
}

// Reader serves a committed snapshot directly from its segment files.
// All methods are safe for concurrent use: every read is either a
// positioned ReadAt or a slice of the read-only mapping, no seek state
// is shared. The reader keeps only the manifest, the index directories
// and the sparse value indexes in memory — posting lists, value tables,
// neighbor buckets and OD records stay on disk until queried (and, when
// mapped, are cached by the OS page cache rather than the application).
type Reader struct {
	dir  string
	meta Meta

	strings  *segReader
	ods      *segReader
	index    *segReader
	neighbor *segReader

	odTableOff int64 // payload offset of the OD offset table

	typeList []TypeMeta
	typeDirs map[string]*typeDir
	nbrDirs  map[string]*nbrDir
}

// typeDir is one type's in-memory directory entry.
type typeDir struct {
	meta   TypeMeta
	segOff int64
	segLen int64
	sparse []sparseRef
}

// nbrDir is one type's neighbor-segment directory entry.
type nbrDir struct {
	budget     int
	numBuckets int
	segOff     int64
	segLen     int64
	sparse     []sparseRef
}

// segReader is one verified segment file: a read-only mapping when
// mmapped, a bare file served by pread otherwise.
type segReader struct {
	name       string
	f          *os.File
	data       []byte // whole file when mapped, nil in pread mode
	payloadLen int64
}

// Open validates and opens the snapshot in dir with default options
// (mmap when available). It returns ErrNoSnapshot when no manifest
// exists and a *CorruptError when any segment fails framing, size or
// checksum verification — a snapshot is either fully intact or
// rejected.
func Open(dir string) (*Reader, error) {
	return OpenWith(dir, OpenOptions{})
}

// OpenWith is Open with explicit access-mode options.
func OpenWith(dir string, opts OpenOptions) (*Reader, error) {
	meta, stamps, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	r := &Reader{
		dir:      dir,
		meta:     meta,
		typeDirs: map[string]*typeDir{},
		nbrDirs:  map[string]*nbrDir{},
	}
	files := []struct {
		name string
		kind byte
		dst  **segReader
	}{
		{StringsFile, kindStrings, &r.strings},
		{ODsFile, kindODs, &r.ods},
		{IndexFile, kindIndex, &r.index},
		{NeighborFile, kindNeighbor, &r.neighbor},
	}
	for i, fl := range files {
		sr, err := openSegment(filepath.Join(dir, fl.name), fl.name, fl.kind, stamps[i], opts.Mmap)
		if err != nil {
			r.Close()
			return nil, err
		}
		*fl.dst = sr
	}
	if err := r.loadODTable(); err != nil {
		r.Close()
		return nil, err
	}
	if err := r.loadIndexDir(); err != nil {
		r.Close()
		return nil, err
	}
	if err := r.loadNeighborDir(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// Close releases the segment mappings and file handles.
func (r *Reader) Close() error {
	var first error
	for _, sr := range []*segReader{r.strings, r.ods, r.index, r.neighbor} {
		if sr == nil {
			continue
		}
		if sr.data != nil {
			if err := munmapFile(sr.data); err != nil && first == nil {
				first = err
			}
			sr.data = nil
		}
		if sr.f != nil {
			if err := sr.f.Close(); err != nil && first == nil {
				first = err
			}
			sr.f = nil
		}
	}
	return first
}

// Meta returns the manifest record.
func (r *Reader) Meta() Meta { return r.meta }

// NumODs returns the object count.
func (r *Reader) NumODs() int { return r.meta.NumODs }

// MmapActive reports whether the segments are served from a memory
// mapping (false: positioned reads).
func (r *Reader) MmapActive() bool { return r.strings != nil && r.strings.data != nil }

// Types lists the per-type index segments in ascending name order.
func (r *Reader) Types() []TypeMeta { return r.typeList }

// OD decodes the object description with the given ID from disk.
func (r *Reader) OD(id int32) (object string, source int32, tuples []Tuple, err error) {
	if id < 0 || int(id) >= r.meta.NumODs {
		return "", 0, nil, fmt.Errorf("odcodec: OD id %d out of range [0,%d)", id, r.meta.NumODs)
	}
	// The record spans [off[id], off[id+1]); the table itself bounds the
	// final record.
	var span [16]byte
	end := r.odTableOff
	if int(id) == r.meta.NumODs-1 {
		if err := r.ods.readAt(span[:8], r.odTableOff+8*int64(id)); err != nil {
			return "", 0, nil, err
		}
	} else {
		if err := r.ods.readAt(span[:16], r.odTableOff+8*int64(id)); err != nil {
			return "", 0, nil, err
		}
		end = int64(binary.LittleEndian.Uint64(span[8:]))
	}
	start := int64(binary.LittleEndian.Uint64(span[:8]))
	if start < 0 || end < start || end > r.odTableOff {
		return "", 0, nil, corrupt(ODsFile, "record %d spans [%d,%d) outside payload", id, start, end)
	}
	buf, err := r.ods.bytesAt(start, end-start)
	if err != nil {
		return "", 0, nil, err
	}
	br := &byteReader{buf: buf, file: ODsFile}
	object, err = r.readHandle(br)
	if err != nil {
		return "", 0, nil, err
	}
	src, err := br.uvarint()
	if err != nil {
		return "", 0, nil, err
	}
	n, err := br.count(maxCount)
	if err != nil {
		return "", 0, nil, err
	}
	tuples = make([]Tuple, n)
	for i := 0; i < n; i++ {
		if tuples[i].Value, err = r.readHandle(br); err != nil {
			return "", 0, nil, err
		}
		if tuples[i].Name, err = r.readHandle(br); err != nil {
			return "", 0, nil, err
		}
		if tuples[i].Type, err = r.readHandle(br); err != nil {
			return "", 0, nil, err
		}
	}
	return object, int32(src), tuples, nil
}

// LookupValue appends the posting list of one exact (type, value) pair
// to dst, or reports ok=false when the type or value is not indexed.
// Cost is a binary search over the sparse directory plus a walk of one
// block's entry headers; the string heap is read only for entries of
// the query's byte length, and those are compared in place.
func (r *Reader) LookupValue(typ, value string, dst []int32) (objects []int32, ok bool, err error) {
	c := r.Values(typ)
	if c.td == nil {
		return dst, false, nil
	}
	// Last sparse entry with value <= query.
	sparse := c.td.sparse
	blk := sort.Search(len(sparse), func(i int) bool { return sparse[i].value > value }) - 1
	if blk < 0 {
		return dst, false, nil
	}
	defer c.Close()
	if err := c.load(blk); err != nil {
		return dst, false, err
	}
	for c.pos < len(c.buf) {
		if err := c.decode(); err != nil {
			return dst, false, err
		}
		if c.vLen != uint64(len(value)) {
			continue
		}
		v, err := c.Value()
		if err != nil {
			return dst, false, err
		}
		if string(v) == value {
			objects, err = c.AppendPostings(dst)
			return objects, err == nil, err
		}
		if string(v) > value {
			break
		}
	}
	return dst, false, nil
}

// readScratch is what one positioned-read lookup needs in place of the
// mapping: the block it walks and the value it is looking at. Pooled,
// so a lookup without mmap costs its reads and no allocation.
type readScratch struct{ block, value []byte }

var scratchPool = sync.Pool{New: func() any { return new(readScratch) }}

// view returns n payload bytes at payload offset off: a subslice of
// the mapping, or — without mmap — exactly those bytes read into the
// block (or value) buffer of *sc, which is taken from the pool on first
// use and released by the caller. The bytes are valid until the next
// view into the same buffer and never past the Reader's Close.
func (s *segReader) view(off, n int64, sc **readScratch, value bool) ([]byte, error) {
	if s.data != nil {
		return s.bytesAt(off, n)
	}
	if err := s.checkRange(off, n); err != nil {
		return nil, err
	}
	if *sc == nil {
		*sc = scratchPool.Get().(*readScratch)
	}
	buf := &(*sc).block
	if value {
		buf = &(*sc).value
	}
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	*buf = (*buf)[:n]
	if _, err := s.f.ReadAt(*buf, headerSize+off); err != nil {
		return nil, corrupt(s.name, "read %d bytes at %d: %v", n, off, err)
	}
	return *buf, nil
}

func releaseScratch(sc *readScratch) {
	if sc != nil {
		scratchPool.Put(sc)
	}
}

// Cursor walks the value entries of one type's index segment in
// ascending value order, one sparse block at a time: a block is a
// subslice of the mapping (or, without mmap, one positioned read of
// exactly the block into a pooled buffer), an entry's header — value
// handle, rune length, posting count, posting bytes — is decoded in
// place, and the value bytes and the posting list are only looked at
// when asked for. Nothing a Cursor hands out may be kept: Value is a
// view of the string heap, valid until the next Value, Next or Seek.
// A Cursor is a plain value for one goroutine; Close it when done.
type Cursor struct {
	r   *Reader
	typ string
	td  *typeDir // nil: the type is not indexed, the cursor is empty
	blk int      // sparse block held in buf, -1 before the first
	buf []byte
	pos int   // offset in buf of the entry after the current one
	ord int32 // ordinal of the current entry

	vOff, vLen uint64
	runeLen    int
	nObjs      int
	postings   []byte

	sc  *readScratch
	err error
}

// Values returns a cursor before the first value of one type.
func (r *Reader) Values(typ string) Cursor {
	return Cursor{r: r, typ: typ, td: r.typeDirs[typ], blk: -1, ord: -1}
}

// Close returns the cursor's read buffers to the pool.
func (c *Cursor) Close() {
	releaseScratch(c.sc)
	c.sc = nil
}

// Err returns the error that ended Next, if any.
func (c *Cursor) Err() error { return c.err }

// Next advances to the next entry; false at the end of the type or on
// an error (see Err).
func (c *Cursor) Next() bool {
	if c.err != nil || c.td == nil {
		return false
	}
	for c.pos >= len(c.buf) {
		if c.blk+1 >= len(c.td.sparse) {
			return false
		}
		if c.err = c.load(c.blk + 1); c.err != nil {
			return false
		}
	}
	c.err = c.decode()
	return c.err == nil
}

// Seek positions the cursor on the entry with the given ordinal (its
// position in the ascending value order) — the random-access half of
// the persisted neighbor index, whose buckets store value ordinals.
// Cost is bounded by one sparse block, whose earlier entries are
// skipped header by header; ascending seeks within a block continue
// where the last one stopped.
func (c *Cursor) Seek(ordinal int32) error {
	if c.td == nil {
		return corrupt(IndexFile, "Seek on unknown type %q", c.typ)
	}
	if ordinal < 0 || int(ordinal) >= c.td.meta.NumValues {
		return corrupt(IndexFile, "type %q ordinal %d outside [0,%d)", c.typ, ordinal, c.td.meta.NumValues)
	}
	blk := int(ordinal) / sparseEvery
	if blk >= len(c.td.sparse) {
		return corrupt(IndexFile, "type %q: sparse directory too short for ordinal %d", c.typ, ordinal)
	}
	if c.err == nil && (blk != c.blk || ordinal < c.ord) {
		c.err = c.load(blk)
	}
	for c.err == nil && c.ord < ordinal {
		if c.pos >= len(c.buf) {
			c.err = corrupt(IndexFile, "type %q: block ended before ordinal %d", c.typ, ordinal)
			break
		}
		c.err = c.decode()
	}
	return c.err
}

// load makes sparse block blk the cursor's buffer.
func (c *Cursor) load(blk int) error {
	td := c.td
	start, end := int64(td.sparse[blk].off), td.segLen
	if blk+1 < len(td.sparse) {
		end = int64(td.sparse[blk+1].off)
	}
	if end < start {
		return corrupt(IndexFile, "type %q: sparse block %d ends before it starts", c.typ, blk)
	}
	buf, err := c.r.index.view(td.segOff+start, end-start, &c.sc, false)
	if err != nil {
		return err
	}
	c.buf, c.pos, c.blk, c.ord = buf, 0, blk, int32(blk*sparseEvery)-1
	return nil
}

// decode reads the header of the entry at pos and steps over it.
func (c *Cursor) decode() error {
	c.ord++
	var f [5]uint64 // value offset and length, rune length, posting count, posting bytes
	b, p := c.buf, c.pos
	for i := range f {
		if p < len(b) && b[p] < 0x80 { // one byte: every field but the heap offset, as a rule
			f[i], p = uint64(b[p]), p+1
		} else if f[i], p = uvarintAt(b, p); p < 0 {
			return corrupt(IndexFile, "type %q: bad or truncated header of entry %d", c.typ, c.ord)
		}
	}
	c.vOff, c.vLen, c.runeLen, c.nObjs = f[0], f[1], int(f[2]), int(f[3])
	if heap := uint64(c.r.strings.payloadLen); c.vLen > maxStringLen || c.vOff > heap || c.vLen > heap-c.vOff {
		return corrupt(StringsFile, "string handle [%d,+%d) beyond payload %d", c.vOff, c.vLen, heap)
	}
	if f[2] > c.vLen {
		return corrupt(IndexFile, "type %q entry %d: %d runes in %d bytes", c.typ, c.ord, f[2], c.vLen)
	}
	// Every posting takes at least one byte, so the byte length bounds
	// the count before anything is sized by it.
	if f[3] > maxCount || f[3] > f[4] {
		return corrupt(IndexFile, "type %q entry %d: bad posting count", c.typ, c.ord)
	}
	if f[4] > uint64(len(b)-p) {
		return corrupt(IndexFile, "type %q entry %d: truncated postings", c.typ, c.ord)
	}
	c.postings, c.pos = b[p:p+int(f[4])], p+int(f[4])
	return nil
}

// Ordinal returns the current entry's position in the value order.
func (c *Cursor) Ordinal() int32 { return c.ord }

// RuneLen returns the current value's persisted length in runes — the
// gate a similar-value scan applies before it looks at the value.
func (c *Cursor) RuneLen() int { return c.runeLen }

// Value returns the current value's bytes in the string heap.
func (c *Cursor) Value() ([]byte, error) {
	return c.r.strings.view(int64(c.vOff), int64(c.vLen), &c.sc, true)
}

// AppendPostings decodes the current entry's posting list onto dst.
func (c *Cursor) AppendPostings(dst []int32) ([]int32, error) {
	dst, _, err := appendPostingIDs(dst, c.postings, 0, c.nObjs, IndexFile)
	return dst, err
}

// HasNeighbors reports whether the snapshot persists a deletion-
// neighborhood index for the type (an edit budget of 0..2 at write
// time).
func (r *Reader) HasNeighbors(typ string) bool {
	_, ok := r.nbrDirs[typ]
	return ok
}

// nbrBlock walks the buckets of one neighbor-segment block.
type nbrBlock struct {
	buf []byte
	pos int
}

// next decodes the next bucket's header: variants are front-coded
// against their predecessor, so the caller passes the previous variant
// and gets the current one back, rebuilt in the same buffer (a caller's
// stack array stays on the stack that way). The bucket's nOrds ordinals
// follow at pos.
func (b *nbrBlock) next(prev []byte) (cur []byte, nOrds int, err error) {
	var p uint64
	if b.pos > 0 { // a block restarts with a full variant
		if p, b.pos = uvarintAt(b.buf, b.pos); b.pos < 0 || p > uint64(len(prev)) {
			return prev, 0, corrupt(NeighborFile, "bad front-coded prefix length")
		}
	}
	n, pos := uvarintAt(b.buf, b.pos)
	if pos < 0 || n > maxStringLen || n > uint64(len(b.buf)-pos) {
		return prev, 0, corrupt(NeighborFile, "variant overruns its block")
	}
	cur = append(prev[:p], b.buf[pos:pos+int(n)]...)
	c, pos := uvarintAt(b.buf, pos+int(n))
	if pos < 0 || c > maxCount || c > uint64(len(b.buf)-pos) {
		return cur, 0, corrupt(NeighborFile, "bad ordinal count")
	}
	b.pos = pos
	return cur, int(c), nil
}

// ords steps over the current bucket's n ordinals, appending them to
// dst when keep is set.
func (b *nbrBlock) ords(dst []int32, n int, keep bool) ([]int32, error) {
	if keep {
		var err error
		dst, b.pos, err = appendPostingIDs(dst, b.buf, b.pos, n, NeighborFile)
		return dst, err
	}
	for ; n > 0; n-- {
		if _, b.pos = uvarintAt(b.buf, b.pos); b.pos < 0 {
			return dst, corrupt(NeighborFile, "bad ordinal varint")
		}
	}
	return dst, nil
}

// block returns sparse block i of a type's neighbor segment.
func (r *Reader) neighborBlock(nd *nbrDir, i int, sc **readScratch) ([]byte, error) {
	start, end := int64(nd.sparse[i].off), nd.segLen
	if i+1 < len(nd.sparse) {
		end = int64(nd.sparse[i+1].off)
	}
	return r.neighbor.view(nd.segOff+start, end-start, sc, false)
}

// NeighborLookup appends to dst the value ordinals bucketed under one
// deletion variant — nothing when the type has no neighbor index or the
// variant no bucket. Candidates are unverified — callers re-check the
// edit distance exactly as with the in-memory index.
func (r *Reader) NeighborLookup(typ string, variant []byte, dst []int32) ([]int32, error) {
	nd := r.nbrDirs[typ]
	if nd == nil {
		return dst, nil
	}
	// Last sparse entry with variant <= query.
	sparse := nd.sparse
	i := sort.Search(len(sparse), func(i int) bool { return sparse[i].value > string(variant) }) - 1
	if i < 0 {
		return dst, nil
	}
	var sc *readScratch
	buf, err := r.neighborBlock(nd, i, &sc)
	defer releaseScratch(sc)
	if err != nil {
		return dst, err
	}
	var stack [128]byte
	cur, b := stack[:0], nbrBlock{buf: buf}
	for b.pos < len(b.buf) {
		var n int
		if cur, n, err = b.next(cur); err != nil {
			return dst, err
		}
		cmp := bytes.Compare(cur, variant)
		if cmp > 0 {
			break
		}
		if dst, err = b.ords(dst, n, cmp == 0); err != nil || cmp == 0 {
			return dst, err
		}
	}
	return dst, nil
}

// NeighborBuckets returns the number of variant buckets persisted for
// the type, 0 when it has no neighbor index — the sizing hint for a
// filter built over ScanNeighborVariants.
func (r *Reader) NeighborBuckets(typ string) int {
	if nd := r.nbrDirs[typ]; nd != nil {
		return nd.numBuckets
	}
	return 0
}

// ScanNeighborVariants calls fn for every deletion variant bucketed in
// one type's persisted neighbor segment, in the segment's sorted order.
// It exists so a federation coordinator can summarize a member
// snapshot's bucket keys into a routing filter straight from the
// neighbor segment, without rebuilding the deletion neighborhood from
// the value table. Returns false without calling fn when the type has
// no persisted neighbor index.
func (r *Reader) ScanNeighborVariants(typ string, fn func(variant string)) (bool, error) {
	nd := r.nbrDirs[typ]
	if nd == nil {
		return false, nil
	}
	var sc *readScratch
	defer func() { releaseScratch(sc) }()
	var cur []byte
	for i := range nd.sparse {
		buf, err := r.neighborBlock(nd, i, &sc)
		if err != nil {
			return false, err
		}
		b := nbrBlock{buf: buf}
		for b.pos < len(b.buf) {
			var n int
			if cur, n, err = b.next(cur); err != nil {
				return false, err
			}
			if _, err := b.ords(nil, n, false); err != nil {
				return false, err
			}
			fn(string(cur))
		}
	}
	return true, nil
}

// readHandle decodes an (offset, length) string-heap reference and
// copies the string out.
func (r *Reader) readHandle(br *byteReader) (string, error) {
	off, err := br.uvarint()
	if err != nil {
		return "", err
	}
	n, err := br.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", corrupt(StringsFile, "string length %d exceeds limit", n)
	}
	if off+n < off || int64(off+n) > r.strings.payloadLen {
		return "", corrupt(StringsFile, "string handle [%d,+%d) beyond payload %d", off, n, r.strings.payloadLen)
	}
	if n == 0 {
		return "", nil
	}
	b, err := r.strings.bytesAt(int64(off), int64(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// loadODTable locates the OD offset table from the trailing 8 bytes of
// the ods payload and validates its geometry against the OD count.
func (r *Reader) loadODTable() error {
	if r.ods.payloadLen < 8 {
		return corrupt(ODsFile, "payload too short for table offset")
	}
	var tail [8]byte
	if err := r.ods.readAt(tail[:], r.ods.payloadLen-8); err != nil {
		return err
	}
	r.odTableOff = int64(binary.LittleEndian.Uint64(tail[:]))
	want := r.odTableOff + 8*int64(r.meta.NumODs) + 8
	if r.odTableOff < 0 || want != r.ods.payloadLen {
		return corrupt(ODsFile, "offset table at %d inconsistent with %d ODs in %d payload bytes",
			r.odTableOff, r.meta.NumODs, r.ods.payloadLen)
	}
	return nil
}

// loadIndexDir reads the per-type directory into memory.
func (r *Reader) loadIndexDir() error {
	if r.index.payloadLen < 8 {
		return corrupt(IndexFile, "payload too short for directory offset")
	}
	var tail [8]byte
	if err := r.index.readAt(tail[:], r.index.payloadLen-8); err != nil {
		return err
	}
	dirOff := int64(binary.LittleEndian.Uint64(tail[:]))
	if dirOff < 0 || dirOff > r.index.payloadLen-8 {
		return corrupt(IndexFile, "directory offset %d outside payload", dirOff)
	}
	buf, err := r.index.bytesAt(dirOff, r.index.payloadLen-8-dirOff)
	if err != nil {
		return err
	}
	br := &byteReader{buf: buf, file: IndexFile}
	nTypes, err := br.count(maxCount)
	if err != nil {
		return err
	}
	prev := ""
	for i := 0; i < nTypes; i++ {
		td := &typeDir{}
		if td.meta.Name, err = br.str(); err != nil {
			return err
		}
		if i > 0 && td.meta.Name <= prev {
			return corrupt(IndexFile, "type directory not in ascending order at %q", td.meta.Name)
		}
		prev = td.meta.Name
		fields := make([]uint64, 5)
		for j := range fields {
			if fields[j], err = br.uvarint(); err != nil {
				return err
			}
		}
		td.meta.MaxLen = int(fields[0])
		td.meta.Budget = budgetFromWire(fields[1])
		td.meta.NumValues = int(fields[2])
		td.segOff, td.segLen = int64(fields[3]), int64(fields[4])
		if td.segOff < 0 || td.segLen < 0 || td.segOff+td.segLen > dirOff {
			return corrupt(IndexFile, "type %q segment [%d,+%d) outside data area", td.meta.Name, td.segOff, td.segLen)
		}
		nSparse, err := br.count(maxCount)
		if err != nil {
			return err
		}
		if want := (td.meta.NumValues + sparseEvery - 1) / sparseEvery; nSparse != want {
			return corrupt(IndexFile, "type %q: %d sparse entries for %d values", td.meta.Name, nSparse, td.meta.NumValues)
		}
		td.sparse = make([]sparseRef, nSparse)
		for j := 0; j < nSparse; j++ {
			if td.sparse[j].value, err = br.str(); err != nil {
				return err
			}
			off, err := br.uvarint()
			if err != nil {
				return err
			}
			if int64(off) > td.segLen {
				return corrupt(IndexFile, "type %q sparse entry beyond segment", td.meta.Name)
			}
			td.sparse[j].off = off
		}
		r.typeDirs[td.meta.Name] = td
		r.typeList = append(r.typeList, td.meta)
	}
	if br.pos != len(br.buf) {
		return corrupt(IndexFile, "%d trailing bytes after type directory", len(br.buf)-br.pos)
	}
	return nil
}

// loadNeighborDir reads the neighbor segment's per-type directory and
// cross-checks it against the index directory.
func (r *Reader) loadNeighborDir() error {
	if r.neighbor.payloadLen < 8 {
		return corrupt(NeighborFile, "payload too short for directory offset")
	}
	var tail [8]byte
	if err := r.neighbor.readAt(tail[:], r.neighbor.payloadLen-8); err != nil {
		return err
	}
	dirOff := int64(binary.LittleEndian.Uint64(tail[:]))
	if dirOff < 0 || dirOff > r.neighbor.payloadLen-8 {
		return corrupt(NeighborFile, "directory offset %d outside payload", dirOff)
	}
	buf, err := r.neighbor.bytesAt(dirOff, r.neighbor.payloadLen-8-dirOff)
	if err != nil {
		return err
	}
	br := &byteReader{buf: buf, file: NeighborFile}
	nTypes, err := br.count(maxCount)
	if err != nil {
		return err
	}
	prev := ""
	for i := 0; i < nTypes; i++ {
		name, err := br.str()
		if err != nil {
			return err
		}
		if i > 0 && name <= prev {
			return corrupt(NeighborFile, "type directory not in ascending order at %q", name)
		}
		prev = name
		td := r.typeDirs[name]
		if td == nil {
			return corrupt(NeighborFile, "neighbor index for unknown type %q", name)
		}
		nd := &nbrDir{}
		fields := make([]uint64, 4)
		for j := range fields {
			if fields[j], err = br.uvarint(); err != nil {
				return err
			}
		}
		nd.budget = budgetFromWire(fields[0])
		nd.numBuckets = int(fields[1])
		nd.segOff, nd.segLen = int64(fields[2]), int64(fields[3])
		if nd.budget != td.meta.Budget {
			return corrupt(NeighborFile, "type %q: neighbor budget %d does not match index budget %d", name, nd.budget, td.meta.Budget)
		}
		if nd.segOff < 0 || nd.segLen < 0 || nd.segOff+nd.segLen > dirOff {
			return corrupt(NeighborFile, "type %q segment [%d,+%d) outside data area", name, nd.segOff, nd.segLen)
		}
		nSparse, err := br.count(maxCount)
		if err != nil {
			return err
		}
		if want := (nd.numBuckets + sparseEvery - 1) / sparseEvery; nSparse != want {
			return corrupt(NeighborFile, "type %q: %d sparse entries for %d buckets", name, nSparse, nd.numBuckets)
		}
		nd.sparse = make([]sparseRef, nSparse)
		for j := 0; j < nSparse; j++ {
			if nd.sparse[j].value, err = br.str(); err != nil {
				return err
			}
			off, err := br.uvarint()
			if err != nil {
				return err
			}
			if int64(off) > nd.segLen {
				return corrupt(NeighborFile, "type %q sparse entry beyond segment", name)
			}
			nd.sparse[j].off = off
		}
		r.nbrDirs[name] = nd
	}
	if br.pos != len(br.buf) {
		return corrupt(NeighborFile, "%d trailing bytes after type directory", len(br.buf)-br.pos)
	}
	return nil
}

// readAt reads exactly len(b) payload bytes starting at payload offset
// off.
func (s *segReader) readAt(b []byte, off int64) error {
	if s.data != nil {
		src, err := s.bytesAt(off, int64(len(b)))
		if err != nil {
			return err
		}
		copy(b, src)
		return nil
	}
	if _, err := s.f.ReadAt(b, headerSize+off); err != nil {
		return corrupt(s.name, "read %d bytes at %d: %v", len(b), off, err)
	}
	return nil
}

func (s *segReader) checkRange(off, n int64) error {
	if off < 0 || n < 0 || off+n > s.payloadLen {
		return corrupt(s.name, "range [%d,+%d) outside payload %d", off, n, s.payloadLen)
	}
	return nil
}

// bytesAt returns n payload bytes at payload offset off: a zero-copy
// subslice of the mapping when mapped, a fresh buffer otherwise. The
// returned slice must not be modified.
func (s *segReader) bytesAt(off, n int64) ([]byte, error) {
	if err := s.checkRange(off, n); err != nil {
		return nil, err
	}
	if s.data != nil {
		return s.data[headerSize+off : headerSize+off+n : headerSize+off+n], nil
	}
	buf := make([]byte, n)
	if _, err := s.f.ReadAt(buf, headerSize+off); err != nil {
		return nil, corrupt(s.name, "read %d bytes at %d: %v", n, off, err)
	}
	return buf, nil
}

// openSegment opens and fully verifies one data segment: the file size
// and CRC must match the manifest's stamp and the framing must be
// intact. mode selects mmap vs pread access.
func openSegment(path, name string, kind byte, stamp segmentStamp, mode MmapMode) (*segReader, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, corrupt(name, "segment missing")
		}
		return nil, fmt.Errorf("odcodec: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("odcodec: %w", err)
	}
	if st.Size() != stamp.size {
		f.Close()
		return nil, corrupt(name, "size %d, manifest expects %d", st.Size(), stamp.size)
	}
	header := make([]byte, headerSize)
	if _, err := f.ReadAt(header, 0); err != nil {
		f.Close()
		return nil, corrupt(name, "short header: %v", err)
	}
	payloadLen, err := verifyFraming(name, st.Size(), header, kind)
	if err != nil {
		f.Close()
		return nil, err
	}
	var data []byte
	if mode != MmapOff {
		data, err = mmapFile(f, st.Size())
		if err != nil {
			data = nil // fall back to pread
		}
	}
	// Verify the CRC over header + payload — straight over the mapping
	// when mapped, streamed otherwise — then check the footer and the
	// manifest stamp.
	var crc uint32
	if data != nil {
		crc = crc32.Checksum(data[:headerSize+payloadLen], crcTable)
	} else {
		br := bufio.NewReaderSize(io.NewSectionReader(f, 0, headerSize+payloadLen), 1<<16)
		chunk := make([]byte, 1<<16)
		for {
			n, err := br.Read(chunk)
			crc = crc32.Update(crc, crcTable, chunk[:n])
			if err == io.EOF {
				break
			}
			if err != nil {
				munmapIfSet(data)
				f.Close()
				return nil, fmt.Errorf("odcodec: read %s: %w", path, err)
			}
		}
	}
	footer := make([]byte, footerSize)
	if _, err := f.ReadAt(footer, headerSize+payloadLen); err != nil {
		munmapIfSet(data)
		f.Close()
		return nil, corrupt(name, "short footer: %v", err)
	}
	if err := checkFooter(name, footer, crc); err != nil {
		munmapIfSet(data)
		f.Close()
		return nil, err
	}
	if crc != stamp.crc {
		munmapIfSet(data)
		f.Close()
		return nil, corrupt(name, "checksum %08x does not match manifest stamp %08x", crc, stamp.crc)
	}
	return &segReader{name: name, f: f, data: data, payloadLen: payloadLen}, nil
}

func munmapIfSet(data []byte) {
	if data != nil {
		munmapFile(data)
	}
}

// readManifest loads and verifies the manifest of a snapshot directory,
// returning its record and segment stamps.
func readManifest(dir string) (Meta, []segmentStamp, error) {
	var meta Meta
	path := filepath.Join(dir, ManifestFile)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return meta, nil, ErrNoSnapshot
		}
		return meta, nil, fmt.Errorf("odcodec: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return meta, nil, fmt.Errorf("odcodec: %w", err)
	}
	if st.Size() > 1<<30 {
		return meta, nil, corrupt(ManifestFile, "implausible manifest size %d", st.Size())
	}
	payload, err := readFramedFile(path, ManifestFile, kindManifest, f, st.Size())
	if err != nil {
		return meta, nil, err
	}
	br := &byteReader{buf: payload, file: ManifestFile}
	if meta.Fingerprint, err = br.str(); err != nil {
		return meta, nil, err
	}
	if meta.Theta, err = br.float64(); err != nil {
		return meta, nil, err
	}
	n, err := br.count(maxCount)
	if err != nil {
		return meta, nil, err
	}
	meta.NumODs = n
	if meta.DeltaSeq, err = br.uvarint(); err != nil {
		return meta, nil, err
	}
	nTomb, err := br.count(maxCount)
	if err != nil {
		return meta, nil, err
	}
	if meta.Tombstones, err = decodePostings(br, nTomb); err != nil {
		return meta, nil, err
	}
	for i, id := range meta.Tombstones {
		if int(id) >= meta.NumODs {
			return meta, nil, corrupt(ManifestFile, "tombstone %d outside [0,%d)", id, meta.NumODs)
		}
		if i > 0 && id <= meta.Tombstones[i-1] {
			return meta, nil, corrupt(ManifestFile, "tombstones not strictly ascending at %d", id)
		}
	}
	fv, err := br.count(maxCount)
	if err != nil {
		return meta, nil, err
	}
	// Earlier writers could persist the Step 4 bounds here as a
	// length-prefixed list (count+1; 0 = absent). The trace segment is
	// their one copy now: a list is length-checked and skipped.
	if fv > 0 {
		if fv-1 != meta.NumODs {
			return meta, nil, corrupt(ManifestFile, "%d filter values for %d ODs", fv-1, meta.NumODs)
		}
		for i := 0; i < meta.NumODs; i++ {
			if _, err := br.float64(); err != nil {
				return meta, nil, err
			}
		}
	}
	stamps := make([]segmentStamp, numSegments)
	for i := range stamps {
		sz, err := br.uvarint()
		if err != nil {
			return meta, nil, err
		}
		if br.pos+4 > len(br.buf) {
			return meta, nil, corrupt(ManifestFile, "truncated segment stamp")
		}
		stamps[i] = segmentStamp{
			size: int64(sz),
			crc:  binary.LittleEndian.Uint32(br.buf[br.pos:]),
		}
		br.pos += 4
	}
	if br.pos != len(br.buf) {
		return meta, nil, corrupt(ManifestFile, "%d trailing bytes", len(br.buf)-br.pos)
	}
	return meta, stamps, nil
}
