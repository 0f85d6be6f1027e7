package odcodec

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/strdist"
)

// fuzzODs derives a deterministic OD set from raw fuzz bytes: a handful
// of objects whose tuple values/names/types are short strings cut from
// the input. The derivation only shapes the data — every byte sequence
// yields a valid Writer input, so the fuzzer explores the codec, not
// the derivation.
func fuzzODs(data []byte) []sampleOD {
	next := func(n int) string {
		if len(data) == 0 {
			return ""
		}
		if n > len(data) {
			n = len(data)
		}
		s := string(data[:n])
		data = data[n:]
		return s
	}
	nextByte := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nODs := nextByte()%6 + 1
	out := make([]sampleOD, nODs)
	for i := range out {
		out[i].object = fmt.Sprintf("/doc/item[%d]%s", i+1, next(nextByte()%5))
		out[i].source = int32(nextByte() % 3)
		nTuples := nextByte() % 5
		for j := 0; j < nTuples; j++ {
			out[i].tuples = append(out[i].tuples, Tuple{
				Value: next(nextByte() % 9),
				Name:  "/doc/item/" + next(nextByte()%4+1),
				Type:  "T" + next(nextByte()%3),
			})
		}
	}
	return out
}

// FuzzRoundTrip asserts the invariant the warm-start path depends on:
// whatever OD set is written, the snapshot decodes bit-identically —
// every OD record, every per-type value table, every posting list.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 'a', 'b', 'c', 0xff, 0x00, 'x'})
	f.Add([]byte("DogmatiX tracks down duplicates in XML \x00\x01\x02 values"))
	f.Add([]byte{250, 250, 250, 250, 250, 250, 250, 250, 250, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		ods := fuzzODs(data)

		// Build the per-type value tables the way a store's Finalize
		// would: object counted once per (type, value), ids ascending.
		tables := map[string]map[string][]int32{}
		for id, o := range ods {
			seen := map[[2]string]bool{}
			for _, tp := range o.tuples {
				if tp.Value == "" {
					continue
				}
				k := [2]string{tp.Type, tp.Value}
				if seen[k] {
					continue
				}
				seen[k] = true
				if tables[tp.Type] == nil {
					tables[tp.Type] = map[string][]int32{}
				}
				tables[tp.Type][tp.Value] = append(tables[tp.Type][tp.Value], int32(id))
			}
		}

		dir := t.TempDir()
		w, err := NewWriter(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Abort()
		for _, o := range ods {
			if err := w.AddOD(o.object, o.source, o.tuples); err != nil {
				t.Fatal(err)
			}
		}
		types := make([]string, 0, len(tables))
		for typ := range tables {
			types = append(types, typ)
		}
		sort.Strings(types)
		for _, typ := range types {
			if err := w.BeginType(typ, 7, 1); err != nil {
				t.Fatal(err)
			}
			values := make([]string, 0, len(tables[typ]))
			for v := range tables[typ] {
				values = append(values, v)
			}
			sort.Strings(values)
			for _, v := range values {
				if err := w.AddValue(v, tables[typ][v]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Commit(Meta{Fingerprint: "fuzz", Theta: 0.15}); err != nil {
			t.Fatal(err)
		}

		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.NumODs() != len(ods) {
			t.Fatalf("NumODs = %d, want %d", r.NumODs(), len(ods))
		}
		for id, want := range ods {
			obj, src, tuples, err := r.OD(int32(id))
			if err != nil {
				t.Fatal(err)
			}
			if obj != want.object || src != want.source {
				t.Fatalf("OD(%d) header %q/%d, want %q/%d", id, obj, src, want.object, want.source)
			}
			if len(tuples) != len(want.tuples) {
				t.Fatalf("OD(%d) has %d tuples, want %d", id, len(tuples), len(want.tuples))
			}
			for j := range tuples {
				if tuples[j] != want.tuples[j] {
					t.Fatalf("OD(%d) tuple %d = %+v, want %+v", id, j, tuples[j], want.tuples[j])
				}
			}
		}
		for typ, vals := range tables {
			for v, ids := range vals {
				got, ok, err := r.LookupValue(typ, v, nil)
				if err != nil || !ok || !reflect.DeepEqual(got, ids) {
					t.Fatalf("LookupValue(%q, %q) = %v/%v/%v, want %v", typ, v, got, ok, err, ids)
				}
			}
			scanned, runeLens, postings := scanAll(t, r, typ)
			for i, v := range scanned {
				if !reflect.DeepEqual(postings[i], vals[v]) || runeLens[i] != len([]rune(v)) {
					t.Fatalf("scan (%q,%q) = %d runes, postings %v, want %v", typ, v, runeLens[i], postings[i], vals[v])
				}
			}
			if len(scanned) != len(vals) || !sort.StringsAreSorted(scanned) {
				t.Fatalf("scan of %q yielded %v, want the %d values sorted", typ, scanned, len(vals))
			}
		}
	})
}

// fuzzTemplate lazily builds one pristine snapshot whose data segments
// the manifest fuzzer reuses across executions.
var fuzzTemplate struct {
	once sync.Once
	dir  string
	err  error
}

func fuzzTemplateDir() (string, error) {
	fuzzTemplate.once.Do(func() {
		dir, err := os.MkdirTemp("", "odcodec-fuzz-")
		if err != nil {
			fuzzTemplate.err = err
			return
		}
		w, err := NewWriter(dir)
		if err != nil {
			fuzzTemplate.err = err
			return
		}
		for _, o := range sampleODs() {
			if err := w.AddOD(o.object, o.source, o.tuples); err != nil {
				fuzzTemplate.err = err
				return
			}
		}
		if err := w.BeginType("ARTIST", 12, 2); err != nil {
			fuzzTemplate.err = err
			return
		}
		if err := w.AddValue("Led Zeppelin", []int32{0, 2}); err != nil {
			fuzzTemplate.err = err
			return
		}
		fuzzTemplate.err = w.Commit(Meta{Fingerprint: "tmpl", Theta: 0.15})
		fuzzTemplate.dir = dir
	})
	return fuzzTemplate.dir, fuzzTemplate.err
}

// FuzzOpenManifest feeds arbitrary bytes as the manifest of an
// otherwise intact snapshot: Open must reject cleanly (no panic, no
// silent garbage) or — when the fuzzer reproduces a byte-exact valid
// manifest — yield a reader whose records still decode.
func FuzzOpenManifest(f *testing.F) {
	tmpl, err := fuzzTemplateDir()
	if err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(tmpl, ManifestFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(append([]byte(nil), valid[:len(valid)/2]...))
	short := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(short[len(short)-8:], 0) // break CRC
	f.Add(short)
	// A manifest as earlier writers wrote it with the Step 4 bound list.
	f.Add(withFilterValues(f, valid, []float64{0.5, 0.25, math.NaN()}))
	f.Fuzz(func(t *testing.T, manifest []byte) {
		dir := t.TempDir()
		for _, name := range []string{StringsFile, ODsFile, IndexFile} {
			if err := os.Link(filepath.Join(tmpl, name), filepath.Join(dir, name)); err != nil {
				data, err := os.ReadFile(filepath.Join(tmpl, name))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err != nil {
			return // rejected cleanly
		}
		defer r.Close()
		for id := 0; id < r.NumODs(); id++ {
			if _, _, _, err := r.OD(int32(id)); err != nil {
				t.Fatalf("accepted manifest but OD(%d) fails: %v", id, err)
			}
		}
	})
}

// cursorValues is the value table FuzzIndexCursor reads back: three
// sparse blocks, multi-byte values among them.
func cursorValues() []string {
	values := make([]string, 150)
	for i := range values {
		values[i] = fmt.Sprintf("value-%04d", i)
		if i%7 == 0 {
			values[i] = fmt.Sprintf("valüe-%04d", i)
		}
	}
	sort.Strings(values)
	return values
}

// swapSegmentBytes makes an open segment serve file (a whole segment
// file image, framing included) instead of what Open verified — the
// way past the CRC to the block decoders. The returned function puts
// the original back; call it before the Reader is closed.
func swapSegmentBytes(t *testing.T, sr *segReader, file []byte) (restore func()) {
	t.Helper()
	if sr.data != nil {
		orig := sr.data
		sr.data = file
		return func() { sr.data = orig }
	}
	path := filepath.Join(t.TempDir(), sr.name)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	orig := sr.f
	sr.f = f
	return func() { sr.f = orig; f.Close() }
}

// FuzzIndexCursor flips a byte in the data area of the index or the
// neighbor segment of an open snapshot, or cuts its last block short,
// and drives every block decoder over the damage in both access modes:
// a full scan, ordinal seeks, exact lookups and neighbor probes. Each
// must come back with a *CorruptError or an answer — never a panic, an
// out-of-range slice or an allocation sized by a corrupt count — and on
// an undamaged segment with the right answer.
func FuzzIndexCursor(f *testing.F) {
	f.Add(false, uint32(0), byte(0), uint16(0))
	f.Add(false, uint32(1), byte(0x80), uint16(0))   // first entry's value handle
	f.Add(false, uint32(3), byte(0xff), uint16(0))   // its rune length / posting count
	f.Add(false, uint32(700), byte(0x41), uint16(0)) // a later block
	f.Add(false, uint32(0), byte(0), uint16(3))      // last index block cut inside an entry
	f.Add(false, uint32(0), byte(0), uint16(900))    // cut past whole blocks
	f.Add(true, uint32(0), byte(0x7f), uint16(0))    // a restart variant's length
	f.Add(true, uint32(13), byte(0x90), uint16(0))   // a front-coded prefix or ordinal
	f.Add(true, uint32(0), byte(0), uint16(5))       // last neighbor block cut short
	values := cursorValues()
	tmpl := f.TempDir()
	writeNeighborSnapshot(f, tmpl, 1, values) // posting list i is {i}
	f.Fuzz(func(t *testing.T, neighbor bool, pos uint32, xor byte, cut uint16) {
		name := IndexFile
		if neighbor {
			name = NeighborFile
		}
		image, err := os.ReadFile(filepath.Join(tmpl, name))
		if err != nil {
			t.Fatal(err)
		}
		payload := image[headerSize : len(image)-footerSize]
		payload[int(pos)%len(payload)] ^= xor
		intact := xor == 0 && cut == 0

		for _, mode := range []MmapMode{MmapAuto, MmapOff} {
			r, err := OpenWith(tmpl, OpenOptions{Mmap: mode})
			if err != nil {
				t.Fatal(err)
			}
			sr := r.index
			if neighbor {
				sr = r.neighbor
			}
			restore := swapSegmentBytes(t, sr, image)
			// The directories are private to this Reader: shorten the
			// type's segment to cut its last block.
			if td := r.typeDirs["T"]; !neighbor {
				td.segLen = max(0, td.segLen-int64(cut))
			} else {
				nd := r.nbrDirs["T"]
				nd.segLen = max(0, nd.segLen-int64(cut))
			}
			check := func(what string, err error) bool {
				if err != nil && !IsCorrupt(err) {
					t.Fatalf("mode %s: %s: %v is not a *CorruptError", modeName(mode), what, err)
				}
				if err != nil && intact {
					t.Fatalf("mode %s: %s on an intact segment: %v", modeName(mode), what, err)
				}
				return err == nil
			}

			c := r.Values("T")
			n := 0
			for c.Next() {
				v, err := c.Value()
				ids, perr := c.AppendPostings(nil)
				if check("scan value", err) && check("scan postings", perr) && intact {
					if string(v) != values[n] || c.RuneLen() != len([]rune(values[n])) || !reflect.DeepEqual(ids, []int32{int32(n)}) {
						t.Fatalf("mode %s: entry %d = %q/%d/%v", modeName(mode), n, v, c.RuneLen(), ids)
					}
				}
				n++
			}
			if check("scan", c.Err()) && intact && n != len(values) {
				t.Fatalf("mode %s: scan yielded %d of %d values", modeName(mode), n, len(values))
			}
			for _, ord := range []int32{int32(pos % 150), 149, 64, 63, 0} {
				if check("seek", c.Seek(ord)) {
					v, err := c.Value()
					if check("seek value", err) && intact && string(v) != values[ord] {
						t.Fatalf("mode %s: Seek(%d) = %q", modeName(mode), ord, v)
					}
				}
			}
			c.Close()

			var scratch [4]int32
			for _, i := range []int{int(pos % 150), 0, 70, 149} {
				ids, ok, err := r.LookupValue("T", values[i], scratch[:0])
				if check("lookup", err) && intact && (!ok || !reflect.DeepEqual(ids, []int32{int32(i)})) {
					t.Fatalf("mode %s: LookupValue(%q) = %v/%v", modeName(mode), values[i], ids, ok)
				}
				found := false
				strdist.EachDeletion(values[i], 1, func(variant []byte) {
					ords, err := r.NeighborLookup("T", variant, scratch[:0])
					if check("neighbor lookup", err) {
						found = found || slices.Contains(ords, int32(i))
					}
				})
				if intact && !found {
					t.Fatalf("mode %s: no neighbor bucket of %q holds its ordinal", modeName(mode), values[i])
				}
			}
			buckets := 0
			_, err = r.ScanNeighborVariants("T", func(string) { buckets++ })
			if check("neighbor scan", err) && intact && buckets != r.NeighborBuckets("T") {
				t.Fatalf("mode %s: scanned %d of %d buckets", modeName(mode), buckets, r.NeighborBuckets("T"))
			}
			restore()
			r.Close()
		}
	})
}
