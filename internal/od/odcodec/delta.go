package odcodec

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Delta segments carry post-Finalize store mutations: each
// AddAfterFinalize/Remove batch of a DiskStore appends one numbered,
// CRC-framed delta file next to the base segments. A reopening store
// replays the live deltas (sequence numbers above the manifest's
// DeltaSeq watermark) in order; Save folds them into fresh base
// segments, advances the watermark and deletes the stale files. Unlike
// the base segments, deltas inline their strings — they are small,
// write-once and merged away, so sharing the base string table is not
// worth the coupling.

// Delta is one persisted mutation batch.
type Delta struct {
	// Seq is the 1-based sequence number; deltas apply in Seq order and
	// must be contiguous above the manifest watermark.
	Seq uint64
	// Removed lists the object IDs the batch removed, strictly
	// ascending.
	Removed []int32
	// Added lists the object descriptions the batch appended, in
	// assignment order (their IDs continue the store's ID space).
	Added []DeltaOD
}

// DeltaOD is the codec's view of one appended object description.
type DeltaOD struct {
	Object string
	Source int32
	Tuples []Tuple
}

// DeltaFile returns the file name of the delta with the given sequence
// number.
func DeltaFile(seq uint64) string {
	return fmt.Sprintf("delta-%08d.odx", seq)
}

// deltaSeqOf parses a delta file name, returning ok=false for foreign
// files.
func deltaSeqOf(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "delta-") || !strings.HasSuffix(name, ".odx") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "delta-"), ".odx"), 10, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

// WriteDelta atomically persists one mutation batch: the framed file is
// written to a temporary name, synced, and renamed into place, so a
// crash mid-write never leaves a half delta under the committed name.
func WriteDelta(dir string, d Delta) error {
	if d.Seq == 0 {
		return fmt.Errorf("odcodec: delta sequence numbers start at 1")
	}
	for i := 1; i < len(d.Removed); i++ {
		if d.Removed[i] <= d.Removed[i-1] {
			return fmt.Errorf("odcodec: delta %d: removed ids not strictly ascending", d.Seq)
		}
	}
	b := appendUvarint(nil, d.Seq)
	b = appendUvarint(b, uint64(len(d.Removed)))
	b = appendPostings(b, d.Removed)
	b = appendUvarint(b, uint64(len(d.Added)))
	for _, o := range d.Added {
		if o.Source < 0 {
			return fmt.Errorf("odcodec: delta %d: negative source %d", d.Seq, o.Source)
		}
		b = appendString(b, o.Object)
		b = appendUvarint(b, uint64(uint32(o.Source)))
		b = appendUvarint(b, uint64(len(o.Tuples)))
		for _, t := range o.Tuples {
			b = appendString(b, t.Value)
			b = appendString(b, t.Name)
			b = appendString(b, t.Type)
		}
	}

	h := newHeader(kindDelta, Version)
	crc := crc32.Update(0, crcTable, h)
	crc = crc32.Update(crc, crcTable, b)
	out := append(h, b...)
	out = append(out, newFooter(crc)...)

	path := filepath.Join(dir, DeltaFile(d.Seq))
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
	// The rename must itself be durable before the batch is
	// acknowledged: ReadDeltas' contiguity check can only catch gaps in
	// the middle of the sequence, so a trailing delta lost to an
	// unsynced directory entry would replay as a silent rollback of an
	// acknowledged batch.
	return syncDir(dir)
}

// syncDir fsyncs a directory so a preceding rename survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("odcodec: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("odcodec: sync %s: %w", dir, err)
	}
	return nil
}

// ReadDeltas returns every live delta in dir — sequence numbers above
// afterSeq — in apply order. The live sequence must be contiguous from
// afterSeq+1: a gap means a committed mutation batch went missing, which
// is reported as corruption rather than silently skipped. Stale files at
// or below afterSeq (leftovers of a merge) are ignored.
func ReadDeltas(dir string, afterSeq uint64) ([]Delta, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("odcodec: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := deltaSeqOf(e.Name()); ok && seq > afterSeq {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	out := make([]Delta, 0, len(seqs))
	want := afterSeq
	for _, seq := range seqs {
		want++
		if seq != want {
			return nil, corrupt(DeltaFile(want), "delta sequence gap: next live delta is %d", seq)
		}
		d, err := readDelta(dir, seq)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// readDelta loads and fully verifies one delta file.
func readDelta(dir string, seq uint64) (Delta, error) {
	name := DeltaFile(seq)
	path := filepath.Join(dir, name)
	f, err := os.Open(path)
	if err != nil {
		return Delta{}, fmt.Errorf("odcodec: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return Delta{}, fmt.Errorf("odcodec: %w", err)
	}
	if st.Size() > 1<<32 {
		return Delta{}, corrupt(name, "implausible delta size %d", st.Size())
	}
	payload, err := readFramedFile(path, name, kindDelta, f, st.Size())
	if err != nil {
		return Delta{}, err
	}
	br := &byteReader{buf: payload, file: name}
	d := Delta{}
	if d.Seq, err = br.uvarint(); err != nil {
		return Delta{}, err
	}
	if d.Seq != seq {
		return Delta{}, corrupt(name, "payload sequence %d does not match file name", d.Seq)
	}
	nRem, err := br.count(maxCount)
	if err != nil {
		return Delta{}, err
	}
	if d.Removed, err = decodePostings(br, nRem); err != nil {
		return Delta{}, err
	}
	nAdd, err := br.count(maxCount)
	if err != nil {
		return Delta{}, err
	}
	if nAdd > 0 {
		d.Added = make([]DeltaOD, nAdd)
	}
	for i := range d.Added {
		o := &d.Added[i]
		if o.Object, err = br.str(); err != nil {
			return Delta{}, err
		}
		src, err := br.uvarint()
		if err != nil {
			return Delta{}, err
		}
		o.Source = int32(src)
		nT, err := br.count(maxCount)
		if err != nil {
			return Delta{}, err
		}
		if nT > 0 {
			o.Tuples = make([]Tuple, nT)
		}
		for j := range o.Tuples {
			t := &o.Tuples[j]
			if t.Value, err = br.str(); err != nil {
				return Delta{}, err
			}
			if t.Name, err = br.str(); err != nil {
				return Delta{}, err
			}
			if t.Type, err = br.str(); err != nil {
				return Delta{}, err
			}
		}
	}
	if br.pos != len(br.buf) {
		return Delta{}, corrupt(name, "%d trailing bytes", len(br.buf)-br.pos)
	}
	return d, nil
}

// MaxDeltaSeq returns the highest delta sequence number present in dir,
// or 0 when there are none. Writers committing a full snapshot stamp its
// manifest with this value so that any stale delta file — including
// leftovers of an unrelated earlier store in the same directory — sits
// at or below the watermark and can never replay onto the fresh base.
func MaxDeltaSeq(dir string) (uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("odcodec: %w", err)
	}
	var max uint64
	for _, e := range entries {
		if seq, ok := deltaSeqOf(e.Name()); ok && seq > max {
			max = seq
		}
	}
	return max, nil
}

// RemoveDeltas deletes every delta file with sequence number at or below
// uptoSeq — the cleanup after a merge advanced the manifest watermark.
// Best-effort: a file that resists deletion stays stale on disk and is
// ignored by ReadDeltas anyway.
func RemoveDeltas(dir string, uptoSeq uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if seq, ok := deltaSeqOf(e.Name()); ok && seq <= uptoSeq {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
