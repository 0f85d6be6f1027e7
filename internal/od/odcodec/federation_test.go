package odcodec

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleFederation() Federation {
	return Federation{
		Partitions: 3,
		HashSeed:   0xDEADBEEF,
		Theta:      0.15,
		PartFingerprints: []string{
			"fp-zero", "fp-one", "fp-two",
		},
	}
}

// TestFederationRoundTrip pins the manifest codec: whatever is
// written reads back field-identically, and a missing file reports
// ErrNoFederation.
func TestFederationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadFederation(dir); !errors.Is(err, ErrNoFederation) {
		t.Fatalf("empty dir: err = %v, want ErrNoFederation", err)
	}
	want := sampleFederation()
	if err := WriteFederation(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFederation(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverges:\n got %+v\nwant %+v", got, want)
	}
}

// sampleRoutingFilters builds a representative per-partition filter
// set: a covered bloom, an uncovered live-overlay entry, and a member
// that owns no values of a type at all (absent entry).
func sampleRoutingFilters() [][]RoutingFilter {
	return [][]RoutingFilter{
		{
			{Type: "name", Covered: true, Budget: 1, MaxLen: 12, Bits: []uint64{1, 0, 0xfeed, 9}},
			{Type: "year", Covered: true, Budget: 0, MaxLen: 4, Bits: []uint64{42, 7}},
		},
		{
			{Type: "name", Covered: false, Budget: -1, MaxLen: 31},
		},
		{},
	}
}

// TestFederationFiltersRoundTrip pins the persisted routing filters:
// whatever SavePartitioned records reads back field-identically.
func TestFederationFiltersRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleFederation()
	want.RoutingFilters = sampleRoutingFilters()
	if err := WriteFederation(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFederation(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverges:\n got %+v\nwant %+v", got, want)
	}
}

// TestFederationElasticRejected pins the removal of the manifest's
// elastic section (replica counts and rebalance provenance): a
// CRC-valid manifest that still carries one, as earlier writers
// appended it — even empty — is rejected as corrupt, and so is one
// that ends before the routing-filter presence byte.
func TestFederationElasticRejected(t *testing.T) {
	head := func() []byte {
		b := appendUvarint(nil, 2) // partitions
		b = appendUvarint(b, 7)    // seed
		b = appendFloat64(b, 0.15)
		b = appendString(b, "fp-zero")
		b = appendString(b, "fp-one")
		return append(b, 0) // no routing filters
	}
	dir := t.TempDir()
	writeRawFederation(t, dir, head())
	if _, err := ReadFederation(dir); err != nil {
		t.Fatalf("manifest without an elastic section: %v", err)
	}
	for name, payload := range map[string][]byte{
		"payload ends before routing filters": head()[:len(head())-1],
		"empty elastic section":               append(head(), 0),
		"replica counts":                      append(head(), 1, 1, 1, 0, 0),
		"rebalance provenance":                appendUvarint(appendUvarint(append(head(), 1, 0, 1), 3), 9),
		"trailing bytes":                      append(head(), 0xFF),
	} {
		dir := t.TempDir()
		writeRawFederation(t, dir, payload)
		if _, err := ReadFederation(dir); !IsCorrupt(err) {
			t.Errorf("%s: ReadFederation = %v, want corruption", name, err)
		}
	}
}

// TestFederationWriteValidation pins the writer's field checks.
func TestFederationWriteValidation(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFederation(dir, Federation{Partitions: 0}); err == nil {
		t.Fatal("zero partitions accepted")
	}
	if err := WriteFederation(dir, Federation{Partitions: 2, PartFingerprints: []string{"only-one"}}); err == nil {
		t.Fatal("fingerprint count mismatch accepted")
	}
	for name, mutate := range map[string]func(f *Federation){
		"filter set count mismatch": func(f *Federation) { f.RoutingFilters = f.RoutingFilters[:2] },
		"non-power-of-two bloom":    func(f *Federation) { f.RoutingFilters[0][0].Bits = f.RoutingFilters[0][0].Bits[:3] },
		"covered without bloom":     func(f *Federation) { f.RoutingFilters[0][0].Bits = nil },
		"budget out of range":       func(f *Federation) { f.RoutingFilters[0][0].Budget = maxRoutingBudget + 1 },
		"types out of order": func(f *Federation) {
			f.RoutingFilters[0][0], f.RoutingFilters[0][1] = f.RoutingFilters[0][1], f.RoutingFilters[0][0]
		},
	} {
		fed := sampleFederation()
		fed.RoutingFilters = sampleRoutingFilters()
		mutate(&fed)
		if err := WriteFederation(dir, fed); err == nil {
			t.Errorf("%s: WriteFederation accepted an invalid filter set", name)
		}
	}
}

// writeRawFederation frames an arbitrary payload as a federation
// manifest with valid magic, version and CRC — the vehicle for
// exercising decode-level rejections the writer refuses to produce.
func writeRawFederation(t *testing.T, dir string, payload []byte) {
	t.Helper()
	h := newHeader(kindFederation, Version)
	crc := crc32.Update(0, crcTable, h)
	crc = crc32.Update(crc, crcTable, payload)
	out := append(h, payload...)
	out = append(out, newFooter(crc)...)
	if err := os.WriteFile(filepath.Join(dir, FederationFile), out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFederationStaleFiltersRejected pins the decode-side filter
// checks: a CRC-valid manifest whose filter section violates a routing
// invariant (the shape a version-skewed or hand-patched manifest would
// take) is rejected as corrupt rather than handed to the coordinator.
func TestFederationStaleFiltersRejected(t *testing.T) {
	head := func() []byte {
		b := appendUvarint(nil, 1) // partitions
		b = appendUvarint(b, 7)    // seed
		b = appendFloat64(b, 0.15)
		b = appendString(b, "fp-zero")
		return b
	}
	filter := func(typ string, covered byte, wireBudget, maxLen uint64, words []uint64) []byte {
		b := appendString(nil, typ)
		b = append(b, covered)
		b = appendUvarint(b, wireBudget)
		b = appendUvarint(b, maxLen)
		b = appendUvarint(b, uint64(len(words)))
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	oneFilter := func(f []byte) []byte {
		b := append(head(), 1)  // presence
		b = appendUvarint(b, 1) // one filter for partition 0
		return append(b, f...)
	}
	full := oneFilter(filter("name", 1, 1, 4, []uint64{1, 2}))
	twoTypes := append(head(), 1)
	twoTypes = appendUvarint(twoTypes, 2)
	twoTypes = append(twoTypes, filter("year", 1, 1, 4, []uint64{1})...)
	twoTypes = append(twoTypes, filter("name", 1, 1, 4, []uint64{1})...)
	for name, payload := range map[string][]byte{
		"bad presence byte":      append(head(), 2),
		"bad covered byte":       oneFilter(filter("name", 3, 1, 4, []uint64{1})),
		"non-power-of-two bloom": oneFilter(filter("name", 1, 1, 4, []uint64{1, 2, 3})),
		"covered without bloom":  oneFilter(filter("name", 1, 1, 4, nil)),
		"budget out of range":    oneFilter(filter("name", 1, maxRoutingBudget+2, 4, []uint64{1})),
		"truncated bloom words":  full[:len(full)-8],
		"types out of order":     twoTypes,
	} {
		dir := t.TempDir()
		writeRawFederation(t, dir, payload)
		if _, err := ReadFederation(dir); !IsCorrupt(err) {
			t.Errorf("%s: ReadFederation = %v, want corruption", name, err)
		}
	}
}

// TestFederationCorruptionRejected mirrors the segment byte-flip
// suite: every single-byte flip of a valid federation manifest must be
// rejected as corrupt, and truncations likewise.
func TestFederationCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFederation(dir, sampleFederation()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FederationFile)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pristine {
		corrupted := append([]byte(nil), pristine...)
		corrupted[i] ^= 0x10
		if err := os.WriteFile(path, corrupted, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFederation(dir); !IsCorrupt(err) {
			t.Fatalf("flip of byte %d read back: err = %v", i, err)
		}
	}
	for _, n := range []int{0, 1, len(pristine) / 2, len(pristine) - 1} {
		if err := os.WriteFile(path, pristine[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFederation(dir); !IsCorrupt(err) {
			t.Fatalf("truncation to %d bytes read back: err = %v", n, err)
		}
	}
}

// FuzzFederation feeds arbitrary bytes as the federation manifest:
// ReadFederation must reject cleanly or — on a byte-exact valid
// manifest — return internally consistent fields.
func FuzzFederation(f *testing.F) {
	dir, err := os.MkdirTemp("", "odcodec-fed-fuzz-")
	if err != nil {
		f.Fatal(err)
	}
	if err := WriteFederation(dir, sampleFederation()); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, FederationFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	withFilters := sampleFederation()
	withFilters.RoutingFilters = sampleRoutingFilters()
	if err := WriteFederation(dir, withFilters); err != nil {
		f.Fatal(err)
	}
	validFiltered, err := os.ReadFile(filepath.Join(dir, FederationFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(validFiltered)
	f.Add(append(validFiltered, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, FederationFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		fed, err := ReadFederation(dir)
		if err != nil {
			return // rejected cleanly
		}
		if fed.Partitions < 1 || len(fed.PartFingerprints) != fed.Partitions {
			t.Fatalf("accepted inconsistent federation %+v", fed)
		}
		if fed.RoutingFilters != nil {
			if len(fed.RoutingFilters) != fed.Partitions {
				t.Fatalf("accepted %d filter sets for %d partitions", len(fed.RoutingFilters), fed.Partitions)
			}
			for part, fs := range fed.RoutingFilters {
				for k := range fs {
					if reason := validateRoutingFilter(&fs[k]); reason != "" {
						t.Fatalf("accepted invalid filter (partition %d): %s", part, reason)
					}
					if k > 0 && fs[k-1].Type >= fs[k].Type {
						t.Fatalf("accepted unsorted filter types (partition %d)", part)
					}
				}
			}
		}
	})
}
