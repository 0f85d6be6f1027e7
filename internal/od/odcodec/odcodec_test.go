package odcodec

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeSample writes a small two-type snapshot and returns its meta.
func writeSample(t *testing.T, dir string, fp string) Meta {
	t.Helper()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	ods := sampleODs()
	for _, o := range ods {
		if err := w.AddOD(o.object, o.source, o.tuples); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.BeginType("ARTIST", 12, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.AddValue("Led Zeppelin", []int32{0, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddValue("Leo Zeppelin", []int32{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.BeginType("TITLE", 8, -1); err != nil {
		t.Fatal(err)
	}
	if err := w.AddValue("IV", []int32{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	meta := Meta{Fingerprint: fp, Theta: 0.15}
	if err := w.Commit(meta); err != nil {
		t.Fatal(err)
	}
	meta.NumODs = len(ods)
	return meta
}

type sampleOD struct {
	object string
	source int32
	tuples []Tuple
}

func sampleODs() []sampleOD {
	return []sampleOD{
		{"/db/cd[1]", 0, []Tuple{
			{Value: "Led Zeppelin", Name: "/db/cd/artist", Type: "ARTIST"},
			{Value: "IV", Name: "/db/cd/title", Type: "TITLE"},
		}},
		{"/db/cd[2]", 0, []Tuple{
			{Value: "Leo Zeppelin", Name: "/db/cd/artist", Type: "ARTIST"},
			{Value: "IV", Name: "/db/cd/title", Type: "TITLE"},
			{Value: "", Name: "/db/cd/notes", Type: "NOTES"},
		}},
		{"/db/cd[3]", 1, []Tuple{
			{Value: "Led Zeppelin", Name: "/db/cd/artist", Type: "ARTIST"},
			{Value: "IV", Name: "/db/cd/title", Type: "TITLE"},
		}},
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := writeSample(t, dir, "fp-123")
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	meta := r.Meta()
	if meta.Fingerprint != want.Fingerprint || meta.Theta != want.Theta || meta.NumODs != 3 {
		t.Fatalf("meta = %+v, want %+v", meta, want)
	}

	for i, want := range sampleODs() {
		obj, src, tuples, err := r.OD(int32(i))
		if err != nil {
			t.Fatal(err)
		}
		if obj != want.object || src != want.source || !reflect.DeepEqual(tuples, want.tuples) {
			t.Errorf("OD(%d) = %q/%d/%v, want %+v", i, obj, src, tuples, want)
		}
	}
	if _, _, _, err := r.OD(3); err == nil {
		t.Error("OD(3) out of range succeeded")
	}

	types := r.Types()
	wantTypes := []TypeMeta{
		{Name: "ARTIST", MaxLen: 12, Budget: 2, NumValues: 2},
		{Name: "TITLE", MaxLen: 8, Budget: -1, NumValues: 1},
	}
	if !reflect.DeepEqual(types, wantTypes) {
		t.Errorf("Types() = %+v, want %+v", types, wantTypes)
	}

	ids, ok, err := r.LookupValue("ARTIST", "Led Zeppelin", nil)
	if err != nil || !ok || !reflect.DeepEqual(ids, []int32{0, 2}) {
		t.Errorf("LookupValue = %v/%v/%v", ids, ok, err)
	}
	if _, ok, _ := r.LookupValue("ARTIST", "Lemon", nil); ok {
		t.Error("LookupValue found a value that was never written")
	}
	if _, ok, _ := r.LookupValue("GENRE", "Rock", nil); ok {
		t.Error("LookupValue found a type that was never written")
	}

	scanned, _, postings := scanAll(t, r, "ARTIST")
	if !reflect.DeepEqual(postings, [][]int32{{0, 2}, {1}}) {
		t.Errorf("scanned postings = %v", postings)
	}
	if !reflect.DeepEqual(scanned, []string{"Led Zeppelin", "Leo Zeppelin"}) {
		t.Errorf("scan order = %v", scanned)
	}
}

// scanAll walks one type with a cursor and copies out every entry:
// values, persisted rune lengths and posting lists, in segment order.
func scanAll(t testing.TB, r *Reader, typ string) (values []string, runeLens []int, postings [][]int32) {
	t.Helper()
	c := r.Values(typ)
	defer c.Close()
	for c.Next() {
		v, err := c.Value()
		if err != nil {
			t.Fatal(err)
		}
		ids, err := c.AppendPostings(nil)
		if err != nil {
			t.Fatal(err)
		}
		if int(c.Ordinal()) != len(values) {
			t.Fatalf("entry %d reports ordinal %d", len(values), c.Ordinal())
		}
		values = append(values, string(v))
		runeLens = append(runeLens, c.RuneLen())
		postings = append(postings, ids)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return values, runeLens, postings
}

func TestOpenMissingSnapshot(t *testing.T) {
	if _, err := Open(t.TempDir()); err != ErrNoSnapshot {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
}

// TestRewriteInPlace overwrites a committed snapshot with a fresh
// Writer in the same directory — the rebuild-after-miss flow — and
// asserts the new commit fully replaces the old one.
func TestRewriteInPlace(t *testing.T) {
	dir := t.TempDir()
	writeSample(t, dir, "v1")
	writeSample(t, dir, "v2")
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Meta().Fingerprint; got != "v2" {
		t.Fatalf("fingerprint after rewrite = %q, want v2", got)
	}
	if _, _, _, err := r.OD(0); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateMeta(t *testing.T) {
	dir := t.TempDir()
	writeSample(t, dir, "")
	if err := UpdateMeta(dir, "fp-new"); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	meta := r.Meta()
	if meta.Fingerprint != "fp-new" {
		t.Fatalf("meta after update = %+v", meta)
	}
	if meta.Theta != 0.15 || meta.NumODs != 3 {
		t.Fatalf("update clobbered theta/count: %+v", meta)
	}
}

func TestWriterEnforcesOrder(t *testing.T) {
	w, err := NewWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.BeginType("B", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.BeginType("A", 1, 0); err == nil {
		t.Error("descending type order accepted")
	}

	w2, err := NewWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Abort()
	if err := w2.BeginType("T", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := w2.AddValue("b", []int32{0}); err != nil {
		t.Fatal(err)
	}
	if err := w2.AddValue("a", []int32{0}); err == nil {
		t.Error("descending value order accepted")
	}
}

// TestCorruptionRejected flips single bytes across every segment file
// in turn — header, payload, footer — and asserts Open rejects each
// mutation instead of decoding garbage: the CRCs cover every byte
// between the magics, and the manifest stamps bind the data segments.
func TestCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	writeSample(t, dir, "fp")
	for _, name := range []string{ManifestFile, StringsFile, ODsFile, IndexFile} {
		path := filepath.Join(dir, name)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a spread of offsets: header, early payload, middle, footer.
		offsets := []int{0, 4, 5, headerSize, headerSize + 1, len(orig) / 2, len(orig) - 6, len(orig) - 1}
		for _, off := range offsets {
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
				t.Errorf("%s: flip at %d not detected", name, off)
			} else if name != ManifestFile && !IsCorrupt(err) {
				// Manifest flips may alter the recorded stamps and so can
				// surface as any corruption; data segments must too.
				t.Errorf("%s: flip at %d: err = %v, want corruption", name, off, err)
			}
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Pristine snapshot still opens after the restore.
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
}

func TestTruncationRejected(t *testing.T) {
	dir := t.TempDir()
	writeSample(t, dir, "fp")
	path := filepath.Join(dir, ODsFile)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, orig[:len(orig)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !IsCorrupt(err) {
		t.Fatalf("truncated segment: err = %v, want corruption", err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !IsCorrupt(err) {
		t.Fatalf("missing segment: err = %v, want corruption", err)
	}
}
