package strdist

import "slices"

// Pattern is one string prepared for edit-distance computations against
// many others: the bit-vector algorithm of Myers (1999) in Hyyrö's
// formulation, which advances a whole DP column of up to 64 cells with a
// dozen word operations per rune of the other string. Matching an n×m
// group of values sets each of the n as the pattern once and measures it
// against the m others, so the per-rune match masks are built n times,
// not n·m times. Patterns past 64 runes fall back to LevenshteinRunes.
//
// The zero value is an empty pattern. A Pattern keeps a reference to the
// runes it was Set to until the next Set.
type Pattern struct {
	runes []rune
	// Match masks by rune, open addressing over rune&127 with linear
	// probing: bit i of a rune's mask is set iff runes[i] is that rune. A
	// zero mask marks a free slot. At most 64 of the 128 slots are taken.
	keys  [128]rune
	masks [128]uint64
	used  [64]uint8 // the taken slots, for clearing without a sweep
	nUsed int
}

// Set makes runes the pattern.
func (p *Pattern) Set(runes []rune) {
	for _, slot := range p.used[:p.nUsed] {
		p.masks[slot] = 0
	}
	p.nUsed = 0
	p.runes = runes
	if len(runes) > 64 {
		return
	}
	for i, r := range runes {
		slot := uint8(r) & 127
		for p.masks[slot] != 0 && p.keys[slot] != r {
			slot = (slot + 1) & 127
		}
		if p.masks[slot] == 0 {
			p.keys[slot] = r
			p.used[p.nUsed] = slot
			p.nUsed++
		}
		p.masks[slot] |= 1 << i
	}
}

// mask returns the match mask of r, zero if the pattern lacks it.
func (p *Pattern) mask(r rune) uint64 {
	slot := uint8(r) & 127
	for p.masks[slot] != 0 {
		if p.keys[slot] == r {
			return p.masks[slot]
		}
		slot = (slot + 1) & 127
	}
	return 0
}

// Distance returns the edit distance between the pattern and text —
// LevenshteinRunes(pattern, text) — without allocating.
func (p *Pattern) Distance(text []rune) int {
	m := len(p.runes)
	switch {
	case m > 64:
		return LevenshteinRunes(p.runes, text)
	case m == 0:
		return len(text)
	case slices.Equal(p.runes, text):
		return 0
	}
	// pv/mv hold the vertical deltas (+1/-1) of the current column, one
	// bit per pattern rune; the score follows the column's last cell.
	pv, mv := ^uint64(0)>>(64-m), uint64(0)
	last := uint64(1) << (m - 1)
	score := m
	for _, r := range text {
		eq := p.mask(r)
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		} else if mh&last != 0 {
			score--
		}
		ph = ph<<1 | 1 // the first row grows by one per text rune
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}
