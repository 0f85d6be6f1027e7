package odcodec

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// withFilterValues re-encodes a manifest this package wrote as earlier
// writers wrote it when they persisted the Step 4 bounds: the list
// (count+1, then one float64 per value) replaces the "absent" marker
// that follows the tombstones, and the frame's CRC is recomputed.
func withFilterValues(t testing.TB, manifest []byte, fv []float64) []byte {
	t.Helper()
	body := manifest[headerSize : len(manifest)-footerSize]
	br := &byteReader{buf: body, file: ManifestFile}
	_, err := br.str()
	if err == nil {
		_, err = br.float64()
	}
	if err == nil {
		_, err = br.uvarint() // NumODs
	}
	if err == nil {
		_, err = br.uvarint() // DeltaSeq
	}
	var nTomb uint64
	if err == nil {
		nTomb, err = br.uvarint()
	}
	if err == nil {
		_, err = decodePostings(br, int(nTomb))
	}
	if err != nil || body[br.pos] != 0 {
		t.Fatalf("manifest has no absent filter-value marker (err %v)", err)
	}
	out := append([]byte(nil), body[:br.pos]...)
	out = appendUvarint(out, uint64(len(fv))+1)
	for _, v := range fv {
		out = appendFloat64(out, v)
	}
	out = append(out, body[br.pos+1:]...)
	h := manifest[:headerSize]
	crc := crc32.Update(crc32.Update(0, crcTable, h), crcTable, out)
	return append(append(append([]byte(nil), h...), out...), newFooter(crc)...)
}

// TestManifestBytesUnchanged pins the manifest encoding: a snapshot
// written without filter values encodes byte for byte as the version-4
// writer that could still persist them did (testdata golden).
func TestManifestBytesUnchanged(t *testing.T) {
	dir := t.TempDir()
	writeSample(t, dir, "fp-123")
	got, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "manifest-v4.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("manifest bytes changed\n got: %x\nwant: %x", got, want)
	}
}

// TestManifestFilterValuesList covers manifests that carry the Step 4
// bound list earlier version-4 writers persisted (testdata golden,
// written with the values 0.9, 0.1, NaN): they still open, the list is
// skipped, and a list whose length is not the OD count is corrupt.
func TestManifestFilterValuesList(t *testing.T) {
	dir := t.TempDir()
	writeSample(t, dir, "fp-123")
	path := filepath.Join(dir, ManifestFile)
	plain, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := os.ReadFile(filepath.Join("testdata", "manifest-v4-filter-values.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := withFilterValues(t, plain, []float64{0.9, 0.1, math.NaN()}); !bytes.Equal(got, legacy) {
		t.Fatalf("re-encoded list differs from the golden\n got: %x\nwant: %x", got, legacy)
	}

	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("manifest with a filter-value list rejected: %v", err)
	}
	if meta := r.Meta(); meta.Fingerprint != "fp-123" || meta.Theta != 0.15 || meta.NumODs != 3 {
		t.Errorf("meta = %+v", meta)
	}
	for id := int32(0); id < 3; id++ {
		if _, _, _, err := r.OD(id); err != nil {
			t.Errorf("OD(%d): %v", id, err)
		}
	}
	r.Close()

	// Stamping the snapshot rewrites the manifest without the list.
	if err := UpdateMeta(dir, "fp-123"); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, plain) {
		t.Errorf("UpdateMeta kept the list (err %v)", err)
	}

	for _, n := range []int{2, 4} {
		bad := withFilterValues(t, plain, make([]float64, n))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		var ce *CorruptError
		if _, err := Open(dir); !errors.As(err, &ce) {
			t.Errorf("%d filter values for 3 ODs: err = %v, want *CorruptError", n, err)
		}
	}
}
