package odcodec

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/strdist"
)

// modeName spells an access mode in subtest names and messages.
func modeName(m MmapMode) string {
	if m == MmapOff {
		return "off"
	}
	return "auto"
}

// TestMmapModes opens the same snapshot in every access mode and
// asserts the modes only change how bytes are read, never what they
// decode to. "on" is the default mode held to the mapped path: it must
// map on linux and is skipped where the platform may fall back. MmapOff
// is the forced-pread path that exercises the portable fallback on
// platforms where the mapping would succeed.
func TestMmapModes(t *testing.T) {
	dir := t.TempDir()
	writeSample(t, dir, "fp-mmap")
	type answer struct {
		object string
		ids    []int32
		values []string
	}
	var answers []answer
	for _, tc := range []struct {
		name string
		mode MmapMode
	}{{"auto", MmapAuto}, {"on", MmapAuto}, {"off", MmapOff}} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := OpenWith(dir, OpenOptions{Mmap: tc.mode})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if tc.mode == MmapOff && r.MmapActive() {
				t.Fatal("MmapOff still mapped the segments")
			}
			if tc.name == "on" && !r.MmapActive() {
				if runtime.GOOS == "linux" {
					t.Fatal("default mode did not map the segments on linux")
				}
				t.Skip("memory mapping unavailable on this platform")
			}
			obj, _, _, err := r.OD(1)
			if err != nil {
				t.Fatal(err)
			}
			ids, ok, err := r.LookupValue("ARTIST", "Led Zeppelin", nil)
			if err != nil || !ok {
				t.Fatalf("LookupValue = %v/%v/%v", ids, ok, err)
			}
			values, _, _ := scanAll(t, r, "ARTIST")
			answers = append(answers, answer{obj, ids, values})
			if len(answers) > 1 && !reflect.DeepEqual(answers[0], answers[len(answers)-1]) {
				t.Fatalf("mode %s answers differ: %+v vs %+v", tc.name, answers[0], answers[len(answers)-1])
			}
		})
	}
}

// neighborValues is a value table whose neighborhood has real collisions
// across its two-edit budget.
var neighborValues = []string{
	"abba", "abbey road", "animals", "anneals", "beatles", "bettles",
	"kind of blue", "kind of glue", "kinds of blue", "led zeppelin",
	"leo zeppelin", "muddy water", "muddy waters", "ok computer",
	"ok computers", "the wail", "the wall", "the whale", "wish you were here",
}

// writeNeighborSnapshot persists one type with the given budget over
// sorted distinct values; posting list i is {i}.
func writeNeighborSnapshot(t testing.TB, dir string, budget int, values []string) {
	t.Helper()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	maxLen := 0
	for _, v := range values {
		if l := len([]rune(v)); l > maxLen {
			maxLen = l
		}
	}
	if err := w.BeginType("T", maxLen, budget); err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if err := w.AddValue(v, []int32{int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(Meta{Theta: 0.3}); err != nil {
		t.Fatal(err)
	}
}

// TestNeighborLookupMatchesInMemoryIndex pins the persisted neighbor
// segment to strdist.NeighborIndex: for every value as a query, the
// disk candidates (query variants -> buckets, verified) must equal the
// in-memory index's verified lookup, in both access modes and for every
// indexable budget.
func TestNeighborLookupMatchesInMemoryIndex(t *testing.T) {
	for _, budget := range []int{0, 1, 2} {
		for _, mode := range []MmapMode{MmapAuto, MmapOff} {
			t.Run(fmt.Sprintf("budget=%d/mmap=%s", budget, modeName(mode)), func(t *testing.T) {
				dir := t.TempDir()
				writeNeighborSnapshot(t, dir, budget, neighborValues)
				r, err := OpenWith(dir, OpenOptions{Mmap: mode})
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				if !r.HasNeighbors("T") {
					t.Fatal("HasNeighbors = false for an indexable budget")
				}
				mem := strdist.NewNeighborIndex(neighborValues, budget)
				for _, q := range append([]string{"zzz", "kind of", ""}, neighborValues...) {
					got := diskNeighborLookup(t, r, q, budget)
					want := append([]int32(nil), mem.Lookup(q, -1)...)
					sortInt32sTest(want)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("q=%q: disk %v, mem %v", q, got, want)
					}
				}
			})
		}
	}
}

// diskNeighborLookup mirrors the DiskStore fast path: probe every query
// variant, dedupe ordinals, verify with the banded edit distance.
func diskNeighborLookup(t testing.TB, r *Reader, q string, budget int) []int32 {
	t.Helper()
	seen := map[int32]bool{}
	var out []int32
	c := r.Values("T")
	defer c.Close()
	for _, variant := range strdist.DeletionVariants(q, budget) {
		ords, err := r.NeighborLookup("T", []byte(variant), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, ord := range ords {
			if seen[ord] {
				continue
			}
			seen[ord] = true
			if err := c.Seek(ord); err != nil {
				t.Fatal(err)
			}
			v, err := c.Value()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := strdist.LevenshteinBounded(q, string(v), budget); ok {
				out = append(out, ord)
			}
		}
	}
	sortInt32sTest(out)
	return out
}

func sortInt32sTest(ids []int32) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// TestNeighborAbsentForUnindexableBudget: budgets outside 0..2 persist
// no buckets (matching MemStore, which builds no neighbor index there),
// but the segment still opens and reports the type unindexed.
func TestNeighborAbsentForUnindexableBudget(t *testing.T) {
	for _, budget := range []int{-1, 3} {
		dir := t.TempDir()
		writeNeighborSnapshot(t, dir, budget, []string{"aa", "bb"})
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if r.HasNeighbors("T") {
			t.Errorf("budget %d: HasNeighbors = true", budget)
		}
		if ords, err := r.NeighborLookup("T", []byte("aa"), nil); err != nil || ords != nil {
			t.Errorf("budget %d: NeighborLookup = %v/%v", budget, ords, err)
		}
		r.Close()
	}
}

// TestValueAt pins random access to the value at an ordinal
// (Cursor.Seek) across sparse-block boundaries (>64 values forces
// multiple blocks) in both access modes, forwards within a block,
// backwards and across blocks on one cursor.
func TestValueAt(t *testing.T) {
	values := make([]string, 150)
	for i := range values {
		values[i] = fmt.Sprintf("value-%04d", i)
	}
	dir := t.TempDir()
	writeNeighborSnapshot(t, dir, 1, values)
	for _, mode := range []MmapMode{MmapAuto, MmapOff} {
		r, err := OpenWith(dir, OpenOptions{Mmap: mode})
		if err != nil {
			t.Fatal(err)
		}
		c := r.Values("T")
		for _, ord := range []int32{0, 1, 63, 64, 65, 127, 128, 149, 149, 130, 2, 0} {
			if err := c.Seek(ord); err != nil {
				t.Fatal(err)
			}
			v, err := c.Value()
			if err != nil {
				t.Fatal(err)
			}
			ids, err := c.AppendPostings(nil)
			if err != nil {
				t.Fatal(err)
			}
			if string(v) != values[ord] || c.RuneLen() != len([]rune(values[ord])) || c.Ordinal() != ord || !reflect.DeepEqual(ids, []int32{ord}) {
				t.Errorf("mode %s Seek(%d) = %q/%d/%d/%v", modeName(mode), ord, v, c.RuneLen(), c.Ordinal(), ids)
			}
		}
		if !c.Next() || c.Ordinal() != 1 {
			t.Errorf("mode %s: Next after Seek(0) at ordinal %d (err %v)", modeName(mode), c.Ordinal(), c.Err())
		}
		if err := c.Seek(150); !IsCorrupt(err) {
			t.Errorf("Seek accepted an out-of-range ordinal: %v", err)
		}
		c.Close()
		missing := r.Values("missing")
		if err := missing.Seek(0); !IsCorrupt(err) {
			t.Errorf("Seek accepted an unknown type: %v", err)
		}
		if missing.Next() || missing.Err() != nil {
			t.Errorf("cursor over an unknown type is not empty (err %v)", missing.Err())
		}
		r.Close()
	}
}

// TestNeighborCorruptionRejected byte-flips the neighbor segment like
// the other segments' corruption suite.
func TestNeighborCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	writeNeighborSnapshot(t, dir, 2, neighborValues)
	path := filepath.Join(dir, NeighborFile)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 4, 5, headerSize, headerSize + 3, len(orig) / 2, len(orig) - 6, len(orig) - 1} {
		if off < 0 || off >= len(orig) {
			continue
		}
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := Open(dir); err == nil {
			r.Close()
			t.Errorf("flip at %d not detected", off)
		} else if !IsCorrupt(err) {
			t.Errorf("flip at %d: err = %v, want corruption", off, err)
		}
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !IsCorrupt(err) {
		t.Fatalf("missing neighbor segment: err = %v, want corruption", err)
	}
}

// TestFutureVersionRejected: a manifest stamped with a version this
// binary does not know is refused with a version message, never
// misdecoded — the same check an old binary applies to snapshots this
// one writes.
func TestFutureVersionRejected(t *testing.T) {
	assertVersionRefused(t, Version+1)
}

// TestVersion3Refused: the previous format generation (length-prefixed
// string table, inline index values, no neighbor segment) is no longer
// read — a version-3 directory is refused like a future one.
func TestVersion3Refused(t *testing.T) {
	assertVersionRefused(t, 3)
}

func assertVersionRefused(t *testing.T, version byte) {
	t.Helper()
	dir := t.TempDir()
	h := newHeader(kindManifest, version)
	payload := []byte("some other layout")
	crc := crc32.Update(0, crcTable, h)
	crc = crc32.Update(crc, crcTable, payload)
	out := append(h, payload...)
	out = append(out, newFooter(crc)...)
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), out, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir)
	if !IsCorrupt(err) || !strings.Contains(err.Error(), "unsupported format version") {
		t.Fatalf("version %d: err = %v, want unsupported-version corruption", version, err)
	}
}

// FuzzNeighborIndexRoundTrip feeds arbitrary value tables and queries
// through the persisted neighbor segment and checks the verified
// candidate set against the in-memory strdist.NeighborIndex over the
// same values — the equivalence the DiskStore fast path rests on.
func FuzzNeighborIndexRoundTrip(f *testing.F) {
	f.Add("abc\nabd\nxyz", "abe", 1)
	f.Add("a\nb\nab\nba", "aa", 2)
	f.Add("kind of blue\nkind of glue", "kind of blue", 2)
	f.Fuzz(func(t *testing.T, raw, query string, budget int) {
		budget = ((budget % 3) + 3) % 3
		set := map[string]bool{}
		for _, v := range strings.Split(raw, "\n") {
			if v != "" && len(v) <= 64 {
				set[v] = true
			}
		}
		if len(set) == 0 || len(set) > 32 || len(query) > 64 {
			t.Skip()
		}
		values := make([]string, 0, len(set))
		for v := range set {
			values = append(values, v)
		}
		sort.Strings(values)
		dir := t.TempDir()
		writeNeighborSnapshot(t, dir, budget, values)
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		got := diskNeighborLookup(t, r, query, budget)
		mem := strdist.NewNeighborIndex(values, budget)
		want := append([]int32(nil), mem.Lookup(query, -1)...)
		sortInt32sTest(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("values=%q q=%q budget=%d: disk %v, mem %v", values, query, budget, got, want)
		}
	})
}

// FuzzCompressedSegment round-trips arbitrary strings through the
// shared heap's interning (exact dedup, substring sharing, tail
// extension) and asserts every OD decodes back bit-identically.
func FuzzCompressedSegment(f *testing.F) {
	f.Add("abc\nabcdef\ncdef\nabc")
	f.Add("\nx\nxx\nxxx\nxx")
	f.Add("prefix shared\nprefix\nshared")
	f.Fuzz(func(t *testing.T, raw string) {
		parts := strings.Split(raw, "\n")
		if len(parts) > 64 {
			t.Skip()
		}
		for _, p := range parts {
			if len(p) > 256 {
				t.Skip()
			}
		}
		dir := t.TempDir()
		w, err := NewWriter(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range parts {
			err := w.AddOD(fmt.Sprintf("/o[%d]", i), 0, []Tuple{
				{Value: p, Name: p + "n", Type: "T"},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Commit(Meta{Theta: 0.15}); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []MmapMode{MmapAuto, MmapOff} {
			r, err := OpenWith(dir, OpenOptions{Mmap: mode})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range parts {
				obj, _, tuples, err := r.OD(int32(i))
				if err != nil {
					t.Fatal(err)
				}
				if obj != fmt.Sprintf("/o[%d]", i) || len(tuples) != 1 ||
					tuples[0].Value != p || tuples[0].Name != p+"n" || tuples[0].Type != "T" {
					t.Fatalf("mode %s OD(%d) = %q/%v, want value %q", modeName(mode), i, obj, tuples, p)
				}
			}
			r.Close()
		}
	})
}
