// Package odrpc is the network transport of the distributed OD store:
// it serves one partition's queries (ObjectsWithExact, SimilarValues,
// Stats, the routing filters) and mutations
// (AddODs/Finalize during the build phase, AddAfterFinalize/Remove
// afterwards) over a length-prefixed, odcodec-framed binary protocol.
//
// A frame is
//
//	uint32 LE   payload length
//	payload     magic "ODRP" (4) | protocol version (1) | opcode (1) |
//	            body | CRC-32 LE (4) over magic..body
//
// mirroring the segment framing of internal/od/odcodec: every frame is
// versioned and checksummed, so a truncated, bit-flipped or
// foreign-protocol peer is rejected with a typed error
// (*FrameError/*VersionError) instead of decoded into garbage, and a
// version-skewed client/server pair refuses cleanly in either
// direction. Bodies use the same primitives as the disk format —
// uvarints, length-prefixed strings, delta-varint posting lists,
// little-endian float64 bits — so posting lists and similarity scores
// cross the wire bit-exactly.
//
// Server wraps any od.Store (panics from the backend are converted to
// error replies, requests on one connection processed in arrival
// order); Client implements od.Partition with an optional per-call
// deadline, so a hung member surfaces as a timeout error rather than
// stalling the federation forever. The client pipelines: a batched
// operation (SimilarValuesBatch, a chunked mutation shipment) writes a
// bounded window of request frames before the first reply arrives, so
// a whole batch costs one round trip instead of one per chunk, and the
// per-client wire counters (WireStats) account frames, bytes and round
// trips for exactly that saving. NewLoopback wires a Client to a
// Server over an in-process net.Pipe — the full codec runs with no
// real sockets, which is how every test (and the binaries' `-store
// dist` mode) exercises the wire path.
package odrpc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/od"
)

// Version is the protocol version spoken by this package. A peer
// announcing any other version is refused with a *VersionError — the
// protocol may change incompatibly between versions because both ends
// ship from this repository.
//
// Version history: 1 was the strict request/reply protocol; 2 added
// pipelined frames on one connection plus the opSimilarBatch and
// opRoutingFilters opcodes; 3 added opExportODs, since deleted — its
// opcode value stays unassigned, so a version-3 peer that sends it is
// refused as a bad frame, and so are the values of the member-local
// softIDF, softIDF-single and neighbors queries no coordinator sent.
const Version = 3

// maxFrame caps a frame's payload so a corrupt or hostile length
// prefix cannot trigger a giant allocation.
const maxFrame = 1 << 26

// frameOverhead is magic + version + opcode + CRC.
const frameOverhead = 4 + 1 + 1 + 4

var frameMagic = [4]byte{'O', 'D', 'R', 'P'}

// Request opcodes. Responses reuse the opcode byte: opOK carries the
// op-specific result body, opErr a human-readable error string.
const (
	opErr byte = iota
	opOK
	opInfo
	opAddODs
	opFinalize
	opExact
	opSimilar
	_ // 7, 8, 9: retired member-local softIDF, softIDF-single and
	_ // neighbors queries; unassigned, refused like any unknown opcode
	_
	opStats
	opAddAfter
	opRemove
	opSimilarBatch
	opRoutingFilters
	opEnd // sentinel: first invalid opcode
)

// FrameError reports a frame that failed structural validation: bad
// magic, impossible length, checksum mismatch, or a body that does not
// decode. The connection it arrived on is no longer trustworthy.
type FrameError struct {
	Reason string
}

func (e *FrameError) Error() string { return "odrpc: bad frame: " + e.Reason }

func badFrame(format string, args ...any) error {
	return &FrameError{Reason: fmt.Sprintf(format, args...)}
}

// VersionError reports a peer speaking a different protocol version.
// Both directions refuse: a server replies with an error naming its
// version and closes, a client rejects the mismatched reply.
type VersionError struct {
	Got, Want byte
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("odrpc: protocol version %d, this end speaks %d", e.Got, e.Want)
}

// RemoteError is a failure the peer reported through an error reply —
// the backend store rejected or crashed on the request, as opposed to
// the transport failing.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return "odrpc: remote: " + e.Msg }

// writeFrame encodes and writes one frame.
func writeFrame(w io.Writer, op byte, body []byte) error {
	n := frameOverhead + len(body)
	if n > maxFrame {
		return badFrame("frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	buf := make([]byte, 4, 4+n)
	binary.LittleEndian.PutUint32(buf, uint32(n))
	buf = append(buf, frameMagic[:]...)
	buf = append(buf, Version, op)
	buf = append(buf, body...)
	crc := crc32.ChecksumIEEE(buf[4 : 4+n-4])
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	_, err := w.Write(buf)
	return err
}

// readFrame reads and validates one frame, returning its opcode and
// body. Structural failures return *FrameError, a foreign protocol
// version *VersionError; io errors pass through (io.EOF for a cleanly
// closed peer).
func readFrame(r io.Reader) (op byte, body []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < frameOverhead || n > maxFrame {
		return 0, nil, badFrame("payload length %d outside [%d,%d]", n, frameOverhead, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, badFrame("truncated payload: %v", err)
	}
	if [4]byte(payload[:4]) != frameMagic {
		return 0, nil, badFrame("bad magic %q", payload[:4])
	}
	if payload[4] != Version {
		return 0, nil, &VersionError{Got: payload[4], Want: Version}
	}
	op = payload[5]
	if op >= opEnd || op > opSimilar && op < opStats {
		return 0, nil, badFrame("unknown opcode %d", op)
	}
	crc := crc32.ChecksumIEEE(payload[:n-4])
	if got := binary.LittleEndian.Uint32(payload[n-4:]); got != crc {
		return 0, nil, badFrame("checksum mismatch: stored %08x, computed %08x", got, crc)
	}
	return op, payload[6 : n-4], nil
}

// ---- body encoding primitives (the odcodec conventions) ----

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// appendPostings encodes a strictly ascending id list as delta
// varints, exactly like the disk format.
func appendPostings(b []byte, ids []int32) []byte {
	b = appendUvarint(b, uint64(len(ids)))
	for i, id := range ids {
		if i == 0 {
			b = appendUvarint(b, uint64(uint32(id)))
		} else {
			b = appendUvarint(b, uint64(uint32(id-ids[i-1])))
		}
	}
	return b
}

// bodyReader decodes a frame body with bounds and sanity checks; every
// failure is a *FrameError.
type bodyReader struct {
	buf []byte
	pos int
}

func (r *bodyReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, badFrame("bad varint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *bodyReader) count(cap int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(cap) {
		return 0, badFrame("count %d exceeds limit %d", v, cap)
	}
	return int(v), nil
}

// elems decodes an element count for a slice about to be allocated:
// every element occupies at least one body byte, so a count exceeding
// the remaining bytes is corrupt — checked *before* the allocation, so
// a tiny CRC-valid frame from a hostile peer cannot demand gigabytes.
func (r *bodyReader) elems() (int, error) {
	return r.count(len(r.buf) - r.pos)
}

func (r *bodyReader) str() (string, error) {
	n, err := r.count(maxFrame)
	if err != nil {
		return "", err
	}
	if r.pos+n > len(r.buf) {
		return "", badFrame("string of %d bytes overruns body", n)
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s, nil
}

func (r *bodyReader) float64() (float64, error) {
	if r.pos+8 > len(r.buf) {
		return 0, badFrame("float64 overruns body")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return v, nil
}

func (r *bodyReader) postings() ([]int32, error) {
	n, err := r.elems()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]int32, n)
	var prev uint64
	for i := 0; i < n; i++ {
		d, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			prev = d
		} else {
			prev += d
		}
		if prev > math.MaxInt32 {
			return nil, badFrame("posting id %d overflows int32", prev)
		}
		out[i] = int32(prev)
	}
	return out, nil
}

// done verifies the whole body was consumed.
func (r *bodyReader) done() error {
	if r.pos != len(r.buf) {
		return badFrame("%d trailing bytes in body", len(r.buf)-r.pos)
	}
	return nil
}

// ---- shared message bodies ----

// appendODs encodes a batch of object descriptions (AddODs /
// AddAfterFinalize requests). IDs do not cross the wire: the serving
// store assigns them sequentially in arrival order, which the
// coordinator's ID-aligned shipping contract relies on.
func appendODs(b []byte, ods []*od.OD) []byte {
	b = appendUvarint(b, uint64(len(ods)))
	for _, o := range ods {
		b = appendString(b, o.Object)
		b = appendUvarint(b, uint64(uint32(o.Source)))
		b = appendUvarint(b, uint64(len(o.Tuples)))
		for _, t := range o.Tuples {
			b = appendString(b, t.Value)
			b = appendString(b, t.Name)
			b = appendString(b, t.Type)
		}
	}
	return b
}

func (r *bodyReader) ods() ([]*od.OD, error) {
	n, err := r.elems()
	if err != nil {
		return nil, err
	}
	out := make([]*od.OD, n)
	for i := range out {
		o := &od.OD{}
		if o.Object, err = r.str(); err != nil {
			return nil, err
		}
		src, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		o.Source = int(int32(src))
		nT, err := r.elems()
		if err != nil {
			return nil, err
		}
		if nT > 0 {
			o.Tuples = make([]od.Tuple, nT)
		}
		for j := range o.Tuples {
			t := &o.Tuples[j]
			if t.Value, err = r.str(); err != nil {
				return nil, err
			}
			if t.Name, err = r.str(); err != nil {
				return nil, err
			}
			if t.Type, err = r.str(); err != nil {
				return nil, err
			}
		}
		out[i] = o
	}
	return out, nil
}

// appendMatches encodes a SimilarValues result.
func appendMatches(b []byte, ms []od.ValueMatch) []byte {
	b = appendUvarint(b, uint64(len(ms)))
	for _, m := range ms {
		b = appendString(b, m.Value)
		b = appendFloat64(b, m.Dist)
		b = appendPostings(b, m.Objects)
	}
	return b
}

func (r *bodyReader) matches() ([]od.ValueMatch, error) {
	n, err := r.elems()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]od.ValueMatch, n)
	for i := range out {
		m := &out[i]
		if m.Value, err = r.str(); err != nil {
			return nil, err
		}
		if m.Dist, err = r.float64(); err != nil {
			return nil, err
		}
		if m.Objects, err = r.postings(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// appendStats encodes a Stats result. The edit budget is biased by one
// so -1 (no feasible edits) fits a uvarint, as on disk.
func appendStats(b []byte, sts []od.TypeStats) []byte {
	b = appendUvarint(b, uint64(len(sts)))
	for _, st := range sts {
		b = appendString(b, st.Type)
		b = appendUvarint(b, uint64(st.DistinctValues))
		b = appendUvarint(b, uint64(st.MaxLen))
		b = appendUvarint(b, uint64(st.EditBudget+1))
		if st.Indexed {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

func (r *bodyReader) stats() ([]od.TypeStats, error) {
	n, err := r.elems()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]od.TypeStats, n)
	for i := range out {
		st := &out[i]
		if st.Type, err = r.str(); err != nil {
			return nil, err
		}
		fields := [3]uint64{}
		for j := range fields {
			if fields[j], err = r.uvarint(); err != nil {
				return nil, err
			}
		}
		st.DistinctValues = int(fields[0])
		st.MaxLen = int(fields[1])
		st.EditBudget = int(fields[2]) - 1
		if r.pos >= len(r.buf) {
			return nil, badFrame("stats row truncated")
		}
		st.Indexed = r.buf[r.pos] != 0
		r.pos++
	}
	return out, nil
}

// appendTupleKeys encodes a SimilarValuesBatch request: the batched
// query keys, in answer order.
func appendTupleKeys(b []byte, ts []od.Tuple) []byte {
	b = appendUvarint(b, uint64(len(ts)))
	for _, t := range ts {
		b = appendTupleKey(b, t)
	}
	return b
}

func (r *bodyReader) tupleKeys() ([]od.Tuple, error) {
	n, err := r.elems()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]od.Tuple, n)
	for i := range out {
		if out[i], err = r.tupleKey(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// appendMatchLists encodes a SimilarValuesBatch reply: one match list
// per batched query, in request order.
func appendMatchLists(b []byte, lists [][]od.ValueMatch) []byte {
	b = appendUvarint(b, uint64(len(lists)))
	for _, ms := range lists {
		b = appendMatches(b, ms)
	}
	return b
}

func (r *bodyReader) matchLists() ([][]od.ValueMatch, error) {
	n, err := r.elems()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([][]od.ValueMatch, n)
	for i := range out {
		if out[i], err = r.matches(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// appendFilters encodes a RoutingFilters reply. The budget is biased
// by one so -1 fits a uvarint, like the edit budget in Stats rows;
// bloom words travel little-endian like every fixed-width integer.
func appendFilters(b []byte, fs []od.VariantFilter) []byte {
	b = appendUvarint(b, uint64(len(fs)))
	for i := range fs {
		f := &fs[i]
		b = appendString(b, f.Type)
		if f.Covered {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendUvarint(b, uint64(f.Budget+1))
		b = appendUvarint(b, uint64(f.MaxLen))
		b = appendUvarint(b, uint64(len(f.Bits)))
		for _, w := range f.Bits {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	return b
}

func (r *bodyReader) filters() ([]od.VariantFilter, error) {
	n, err := r.elems()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]od.VariantFilter, n)
	for i := range out {
		f := &out[i]
		if f.Type, err = r.str(); err != nil {
			return nil, err
		}
		if r.pos >= len(r.buf) {
			return nil, badFrame("filter row truncated")
		}
		f.Covered = r.buf[r.pos] != 0
		r.pos++
		budget, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		f.Budget = int(budget) - 1
		maxLen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		f.MaxLen = int(maxLen)
		words, err := r.count((len(r.buf) - r.pos) / 8)
		if err != nil {
			return nil, err
		}
		// The bloom probes mask assuming a power-of-two word count; a
		// filter violating that would skip wrongly, so reject it as
		// corrupt rather than route on it.
		if words&(words-1) != 0 {
			return nil, badFrame("filter bitset of %d words is not a power of two", words)
		}
		if words > 0 {
			f.Bits = make([]uint64, words)
			for j := range f.Bits {
				f.Bits[j] = binary.LittleEndian.Uint64(r.buf[r.pos:])
				r.pos += 8
			}
		}
	}
	return out, nil
}

// appendTupleKey encodes the (type, value) pair every point query
// routes on. Tuple names never cross the wire — no index consults them.
func appendTupleKey(b []byte, t od.Tuple) []byte {
	b = appendString(b, t.Type)
	return appendString(b, t.Value)
}

func (r *bodyReader) tupleKey() (od.Tuple, error) {
	var t od.Tuple
	var err error
	if t.Type, err = r.str(); err != nil {
		return t, err
	}
	t.Value, err = r.str()
	return t, err
}
