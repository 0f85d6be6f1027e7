package odcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// The federation manifest is the commit point of a partitioned
// snapshot (od.SavePartitioned): a directory holding one coordinator
// snapshot (the object descriptions, no value indexes) plus one
// DiskStore segment set per partition under part-NNNNN/. The manifest
// records how the (type, value) space was split — partition count and
// routing hash seed — and the exact provenance of every member, so a
// reopened federation can verify it is assembling the partitions it
// was saved with: a missing, swapped, stale or corrupt member is
// rejected instead of silently serving a subset of the value space.
// Like the snapshot manifest, it is written last via tmp+rename —
// until it exists the directory does not contain a federation.

// FederationFile is the federation manifest's name within the
// directory.
const FederationFile = "federation.odx"

// ErrNoFederation is returned by ReadFederation when the directory
// holds no committed federation manifest.
var ErrNoFederation = errors.New("odcodec: no federation manifest in directory")

// maxPartitions caps the decoded partition count; a federation larger
// than this is a corrupt manifest, not a deployment.
const maxPartitions = 1 << 16

// Federation is the manifest record of a partitioned snapshot.
type Federation struct {
	// Partitions is the member count; partition i's segments live in
	// PartitionDir(i).
	Partitions int
	// HashSeed seeds the (type, value) routing hash. A coordinator must
	// route with the same seed the snapshot was built with, or every
	// point lookup would consult the wrong member.
	HashSeed uint32
	// Theta is the θtuple every member's indexes were built for.
	Theta float64
	// PartFingerprints records each member snapshot's expected
	// fingerprint, index-aligned with the partition numbers.
	PartFingerprints []string
	// RoutingFilters persists each member's variant-routing filter set,
	// index-aligned with the partitions and sorted by type within each
	// member, so a reopened coordinator skips the RoutingFilters refetch
	// round trip. od.SavePartitioned always writes it; od.OpenPartitioned
	// rejects a manifest without it. The filters are part of the
	// CRC-framed manifest: they can only be stale together with the
	// fingerprints, which already pin every member to this exact save.
	RoutingFilters [][]RoutingFilter
}

// RoutingFilter is the manifest record of one (member, type)
// variant-routing filter: the bloom bitset over the member's
// deletion-variant bucket keys plus the coverage metadata the
// coordinator routes with (od.VariantFilter, persisted).
type RoutingFilter struct {
	Type    string
	Covered bool
	Budget  int // deletion depth the bloom was built at; >= -1
	MaxLen  int // longest value rune length of the type at the member
	Bits    []uint64
}

// maxRoutingBudget caps a decoded filter budget: deletion depths run
// 0..2 today, so anything past this is a corrupt manifest, not a
// deeper index.
const maxRoutingBudget = 8

// validateRoutingFilter rejects a filter no source could have emitted;
// shared by the writer (operator error) and reader (corruption).
func validateRoutingFilter(rf *RoutingFilter) string {
	switch {
	case rf.Budget < -1 || rf.Budget > maxRoutingBudget:
		return fmt.Sprintf("routing filter budget %d outside [-1,%d]", rf.Budget, maxRoutingBudget)
	case rf.MaxLen < 0:
		return fmt.Sprintf("negative routing filter max length %d", rf.MaxLen)
	case rf.Covered && len(rf.Bits) == 0:
		return "covered routing filter with no bloom words"
	case len(rf.Bits) > 0 && len(rf.Bits)&(len(rf.Bits)-1) != 0:
		return fmt.Sprintf("routing filter bloom of %d words (not a power of two)", len(rf.Bits))
	}
	return ""
}

// PartitionDir returns the directory name of one partition's segment
// set within a federation directory.
func PartitionDir(i int) string {
	return fmt.Sprintf("part-%05d", i)
}

// WriteFederation atomically installs the federation manifest —
// the last step of a partitioned save.
func WriteFederation(dir string, f Federation) error {
	if f.Partitions < 1 || f.Partitions > maxPartitions {
		return fmt.Errorf("odcodec: federation of %d partitions", f.Partitions)
	}
	if len(f.PartFingerprints) != f.Partitions {
		return fmt.Errorf("odcodec: %d fingerprints for %d partitions", len(f.PartFingerprints), f.Partitions)
	}
	if f.RoutingFilters != nil && len(f.RoutingFilters) != f.Partitions {
		return fmt.Errorf("odcodec: %d routing filter sets for %d partitions", len(f.RoutingFilters), f.Partitions)
	}
	b := appendUvarint(nil, uint64(f.Partitions))
	b = appendUvarint(b, uint64(f.HashSeed))
	b = appendFloat64(b, f.Theta)
	for _, fp := range f.PartFingerprints {
		b = appendString(b, fp)
	}
	if f.RoutingFilters == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		for part, fs := range f.RoutingFilters {
			b = appendUvarint(b, uint64(len(fs)))
			for k := range fs {
				rf := &fs[k]
				if reason := validateRoutingFilter(rf); reason != "" {
					return fmt.Errorf("odcodec: partition %d type %q: %s", part, rf.Type, reason)
				}
				if k > 0 && fs[k-1].Type >= rf.Type {
					return fmt.Errorf("odcodec: partition %d routing filter types not strictly ascending at %q", part, rf.Type)
				}
				b = appendString(b, rf.Type)
				if rf.Covered {
					b = append(b, 1)
				} else {
					b = append(b, 0)
				}
				b = appendUvarint(b, budgetToWire(rf.Budget))
				b = appendUvarint(b, uint64(rf.MaxLen))
				b = appendUvarint(b, uint64(len(rf.Bits)))
				for _, w := range rf.Bits {
					b = binary.LittleEndian.AppendUint64(b, w)
				}
			}
		}
	}
	h := newHeader(kindFederation, Version)
	crc := crc32.Update(0, crcTable, h)
	crc = crc32.Update(crc, crcTable, b)
	out := append(h, b...)
	out = append(out, newFooter(crc)...)

	path := filepath.Join(dir, FederationFile)
	fl, err := os.Create(path + tmpSuffix)
	if err != nil {
		return fmt.Errorf("odcodec: %w", err)
	}
	if _, err := fl.Write(out); err != nil {
		fl.Close()
		return fmt.Errorf("odcodec: %w", err)
	}
	if err := fl.Sync(); err != nil {
		fl.Close()
		return fmt.Errorf("odcodec: %w", err)
	}
	if err := fl.Close(); err != nil {
		return fmt.Errorf("odcodec: %w", err)
	}
	if err := os.Rename(path+tmpSuffix, path); err != nil {
		return fmt.Errorf("odcodec: %w", err)
	}
	return syncDir(dir)
}

// ReadFederation loads and fully verifies the federation manifest of
// dir: framing, version, kind and checksum first (a *CorruptError on
// any failure, exactly like the segment files), then field sanity.
func ReadFederation(dir string) (Federation, error) {
	var f Federation
	path := filepath.Join(dir, FederationFile)
	fl, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return f, ErrNoFederation
		}
		return f, fmt.Errorf("odcodec: %w", err)
	}
	defer fl.Close()
	st, err := fl.Stat()
	if err != nil {
		return f, fmt.Errorf("odcodec: %w", err)
	}
	if st.Size() > 1<<30 {
		return f, corrupt(FederationFile, "implausible manifest size %d", st.Size())
	}
	payload, err := readFramedFile(path, FederationFile, kindFederation, fl, st.Size())
	if err != nil {
		return f, err
	}
	br := &byteReader{buf: payload, file: FederationFile}
	n, err := br.count(maxPartitions)
	if err != nil {
		return f, err
	}
	if n < 1 {
		return f, corrupt(FederationFile, "federation of %d partitions", n)
	}
	f.Partitions = n
	seed, err := br.uvarint()
	if err != nil {
		return f, err
	}
	if seed > 1<<32-1 {
		return f, corrupt(FederationFile, "hash seed %d overflows uint32", seed)
	}
	f.HashSeed = uint32(seed)
	if f.Theta, err = br.float64(); err != nil {
		return f, err
	}
	f.PartFingerprints = make([]string, n)
	for i := range f.PartFingerprints {
		if f.PartFingerprints[i], err = br.str(); err != nil {
			return f, err
		}
	}
	present, err := br.presence("routing-filter")
	if err != nil {
		return f, err
	}
	if present {
		if f.RoutingFilters, err = readRoutingFilters(br, n); err != nil {
			return f, err
		}
	}
	if br.pos != len(br.buf) {
		return f, corrupt(FederationFile, "%d trailing bytes", len(br.buf)-br.pos)
	}
	return f, nil
}

// readRoutingFilters decodes the per-partition routing filter sets,
// enforcing every invariant the writer does — a filter the routing
// layer could misroute on is rejected as corruption, never handed to
// the coordinator.
func readRoutingFilters(br *byteReader, parts int) ([][]RoutingFilter, error) {
	out := make([][]RoutingFilter, parts)
	for part := range out {
		// Each filter costs at least 4 payload bytes, so the remaining
		// bytes bound the count before any allocation.
		m, err := br.count(min(maxCount, (len(br.buf)-br.pos)/4+1))
		if err != nil {
			return nil, err
		}
		fs := make([]RoutingFilter, m)
		for k := range fs {
			rf := &fs[k]
			if rf.Type, err = br.str(); err != nil {
				return nil, err
			}
			if br.pos >= len(br.buf) {
				return nil, corrupt(FederationFile, "routing filter overruns payload")
			}
			switch cov := br.buf[br.pos]; cov {
			case 0, 1:
				rf.Covered = cov == 1
				br.pos++
			default:
				return nil, corrupt(FederationFile, "bad routing filter covered byte %d", cov)
			}
			bw, err := br.uvarint()
			if err != nil {
				return nil, err
			}
			rf.Budget = budgetFromWire(bw)
			if rf.MaxLen, err = br.count(maxCount); err != nil {
				return nil, err
			}
			words, err := br.count(min(maxCount, (len(br.buf)-br.pos)/8+1))
			if err != nil {
				return nil, err
			}
			if words > 0 {
				if br.pos+words*8 > len(br.buf) {
					return nil, corrupt(FederationFile, "bloom of %d words overruns payload", words)
				}
				rf.Bits = make([]uint64, words)
				for w := range rf.Bits {
					rf.Bits[w] = binary.LittleEndian.Uint64(br.buf[br.pos:])
					br.pos += 8
				}
			}
			if reason := validateRoutingFilter(rf); reason != "" {
				return nil, corrupt(FederationFile, "partition %d type %q: %s", part, rf.Type, reason)
			}
			if k > 0 && fs[k-1].Type >= rf.Type {
				return nil, corrupt(FederationFile, "partition %d routing filter types not strictly ascending at %q", part, rf.Type)
			}
		}
		out[part] = fs
	}
	return out, nil
}
