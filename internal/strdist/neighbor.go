package strdist

import (
	"slices"
	"unicode/utf8"
)

// NeighborIndex answers "which of the indexed strings are within d edits of
// this query?" for a small, fixed edit budget d (0, 1 or 2). It hashes the
// deletion neighborhood of each string: every variant obtained by deleting
// up to d runes. Two strings within edit distance d always share at least
// one common deletion variant (the FastSS observation), so variant-bucket
// collisions are a complete candidate set; candidates are then verified
// with the banded edit distance.
//
// Buckets are keyed by the variant's VariantHash, not its bytes: two
// variants whose hashes collide share a bucket, which only adds
// candidates, so the set stays complete and every caller verifies it
// anyway. The buckets are flat arrays (CSR: hashes[b] owns
// ids[offs[b]:offs[b+1]]) behind an open-addressing table, so a build
// allocates a fixed number of slices however many variants it hashes.
//
// For budgets above 2 the neighborhood explodes combinatorially, so callers
// should fall back to a scan with NormalizedBelow (the experiments package
// does this for long track titles).
type NeighborIndex struct {
	maxEdits int
	hashes   []uint64 // distinct variant hashes, ascending
	offs     []int32  // bucket b holds ids[offs[b]:offs[b+1]]
	ids      []int32  // ascending value indices per bucket
	// table is open addressing over hashes: a slot holds bucket+1, 0
	// when empty; a hash probes from hash&mask on.
	table  []int32
	mask   uint64
	values []string
}

// variantRef is one (variant hash, value index) pair of a build.
type variantRef struct {
	hash uint64
	id   int32
}

// NewNeighborIndex builds an index over values with the given edit budget.
// maxEdits is clamped to [0,2].
func NewNeighborIndex(values []string, maxEdits int) *NeighborIndex {
	maxEdits = min(max(maxEdits, 0), 2)
	bound, longest := 0, 0
	for _, v := range values {
		bound += deletionSets(utf8.RuneCountInString(v), maxEdits)
		longest = max(longest, len(v))
	}
	refs := make([]variantRef, 0, bound)
	var cur int32
	add := func(variant []byte) { refs = append(refs, variantRef{VariantHash(variant), cur}) }
	buf := make([]byte, 0, longest)
	for i, v := range values {
		cur = int32(i)
		buf = eachDeletionInto(buf, v, maxEdits, add)
	}
	refs = sortRefs(refs)

	idx := &NeighborIndex{maxEdits: maxEdits, values: values}
	// One pass counts the distinct hashes so every array is sized once.
	distinct := 0
	for i := range refs {
		if i == 0 || refs[i].hash != refs[i-1].hash {
			distinct++
		}
	}
	idx.hashes = make([]uint64, 0, distinct)
	idx.offs = make([]int32, 0, distinct+1)
	idx.ids = make([]int32, 0, len(refs))
	for i, r := range refs {
		switch {
		case i == 0 || r.hash != refs[i-1].hash:
			idx.hashes = append(idx.hashes, r.hash)
			idx.offs = append(idx.offs, int32(len(idx.ids)))
		case r.id == refs[i-1].id:
			// A variant reachable by several deletion sets, or two
			// variants of one value colliding: report the value once.
			continue
		}
		idx.ids = append(idx.ids, r.id)
	}
	idx.offs = append(idx.offs, int32(len(idx.ids)))

	slots := 16
	for slots < 2*distinct {
		slots <<= 1
	}
	idx.table = make([]int32, slots)
	idx.mask = uint64(slots - 1)
	for b, h := range idx.hashes {
		pos := h & idx.mask
		for idx.table[pos] != 0 {
			pos = (pos + 1) & idx.mask
		}
		idx.table[pos] = int32(b + 1)
	}
	return idx
}

// deletionSets bounds the number of variants EachDeletion reports for a
// string of n runes: one per set of at most maxEdits deleted positions.
func deletionSets(n, maxEdits int) int {
	total, c := 0, 1
	for k := 0; k <= min(maxEdits, n); k++ {
		total += c // c = n choose k
		c = c * (n - k) / (k + 1)
	}
	return total
}

// sortRefs orders refs by hash, keeping each hash's value indices in
// their ascending input order: a stable LSD radix sort, one byte of the
// hash per pass, through one scratch slice of the same length.
func sortRefs(refs []variantRef) []variantRef {
	tmp := make([]variantRef, len(refs))
	var count [256]int32
	for shift := uint(0); shift < 64; shift += 8 {
		clear(count[:])
		for _, r := range refs {
			count[uint8(r.hash>>shift)]++
		}
		sum := int32(0)
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, r := range refs {
			d := uint8(r.hash >> shift)
			tmp[count[d]] = r
			count[d]++
		}
		refs, tmp = tmp, refs
	}
	return refs
}

// bucket returns the value indices filed under hash h, nil when none.
func (idx *NeighborIndex) bucket(h uint64) []int32 {
	for pos := h & idx.mask; ; pos = (pos + 1) & idx.mask {
		b := idx.table[pos]
		if b == 0 {
			return nil
		}
		if idx.hashes[b-1] == h {
			return idx.ids[idx.offs[b-1]:idx.offs[b]]
		}
	}
}

// Hashes returns the distinct VariantHash of every deletion variant the
// index buckets under — every string obtainable from an indexed value
// by deleting up to the budget's runes, the values themselves included
// — ascending. The slice is the index's own and must not be modified.
// A federation member summarizes it into a routing filter without
// rebuilding the neighborhood.
func (idx *NeighborIndex) Hashes() []uint64 { return idx.hashes }

// Candidates appends to dst the indices (into the constructor's values
// slice) of every string sharing a deletion-variant hash with q — a
// superset of the strings within maxEdits of q, ascending and
// deduplicated. Callers that verify each candidate against their own
// threshold anyway use it instead of Lookup and skip the banded check.
func (idx *NeighborIndex) Candidates(dst []int32, q string) []int32 {
	start := len(dst)
	EachDeletion(q, idx.maxEdits, func(variant []byte) {
		dst = append(dst, idx.bucket(VariantHash(variant))...)
	})
	tail := dst[start:]
	slices.Sort(tail)
	return dst[:start+len(slices.Compact(tail))]
}

// Lookup returns the indices (into the constructor's values slice) of all
// strings whose edit distance to q is <= maxEdits, excluding exact self
// positions listed in skip (pass -1 for none), in ascending order.
// Results are deduplicated and verified.
func (idx *NeighborIndex) Lookup(q string, skip int32) []int32 {
	var sq, sv [stackRunes]rune
	qr := AppendRunes(sq[:0], q)
	cands := idx.Candidates(nil, q)
	out := cands[:0]
	for _, cand := range cands {
		if cand == skip {
			continue
		}
		if _, ok := LevenshteinBoundedRunes(qr, AppendRunes(sv[:0], idx.values[cand]), idx.maxEdits); ok {
			out = append(out, cand)
		}
	}
	return out
}

// VariantHash is the 64-bit FNV-1a of a deletion variant's bytes: the
// key NeighborIndex buckets a variant under, and the key every routing
// filter sets and probes, so both ends of a federation's wire must
// agree on it.
func VariantHash[S ~string | ~[]byte](s S) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// EachDeletion calls fn with s and with every string obtainable from s
// by deleting up to maxEdits runes. The bytes are only valid during the
// call. Deleting any rune of a run of equal runes yields the same
// string, so only a run's leading runes are deleted; a variant reachable
// through unrelated deletion sets ("abab" → "ab") is still reported once
// per set — callers probing buckets or setting filter bits do not care,
// DeletionVariants deduplicates. Invalid UTF-8 is normalized to U+FFFD
// first, like []rune(s) does, so the variants match what earlier
// versions persisted.
func EachDeletion(s string, maxEdits int, fn func(variant []byte)) {
	eachDeletionInto(nil, s, maxEdits, fn)
}

// eachDeletionInto is EachDeletion building the variants in buf's
// backing array, replaced when s does not fit; it returns the buffer
// for the next call, so a loop over many strings can allocate it once.
func eachDeletionInto(buf []byte, s string, maxEdits int, fn func(variant []byte)) []byte {
	if !utf8.ValidString(s) {
		s = string([]rune(s))
	}
	var stackOffs [stackRunes + 1]int
	offs := stackOffs[:0]
	for i := range s {
		offs = append(offs, i)
	}
	offs = append(offs, len(s))
	if cap(buf) < len(s) {
		buf = make([]byte, 0, len(s))
	}
	eachDeletion(s, offs, 0, maxEdits, buf[:0], fn)
	return buf
}

// eachDeletion reports prefix + s[offs[start]:] and recurses into every
// further deletion at or after rune start. prefix's backing array has
// room for all of s, so the appends below never reallocate and siblings
// reuse the bytes past their common prefix.
func eachDeletion(s string, offs []int, start, left int, prefix []byte, fn func([]byte)) {
	fn(append(prefix, s[offs[start]:]...))
	if left <= 0 {
		return
	}
	for i := start; i < len(offs)-1; i++ {
		if i > start && s[offs[i-1]:offs[i]] == s[offs[i]:offs[i+1]] {
			continue // same string as deleting rune i-1 instead
		}
		eachDeletion(s, offs, i+1, left-1, append(prefix, s[offs[start]:offs[i]]...), fn)
	}
}

// DeletionVariants returns s plus every string obtainable from s by
// deleting up to maxEdits runes, ascending and deduplicated. Exported so
// the odcodec writer can persist the same buckets NewNeighborIndex
// builds in memory, and a disk reader can probe them with the same
// query variants.
func DeletionVariants(s string, maxEdits int) []string {
	var out []string
	EachDeletion(s, maxEdits, func(variant []byte) { out = append(out, string(variant)) })
	slices.Sort(out)
	return slices.Compact(out)
}
