package sim

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/od"
	"repro/internal/strdist"
)

// kernel is the scratch of the Section 5.1 measure: every buffer scoring
// one pair needs, kept between pairs. Scoring walks the two objects'
// compiled tuple groups (od.Compiled) in step and matches each common
// type in the kernel's buffers, so in steady state a score allocates
// nothing; only what a caller keeps — a materialized Result, a trace —
// is allocated. Kernels live in a pool: every entry point of the package
// borrows one for the call, which keeps a warm one per running worker
// without the callers handing scratch around.
type kernel struct {
	store od.Store
	theta float64

	// Per compared pair.
	size           int       // |ΩT|, read once per pair
	rowA, rowB     [][]int32 // the two objects' posting rows, see Postings
	simIDF, conIDF float64   // running setSoftIDF sums, in matching order
	res            Result    // the breakdown, when asked for
	ownA, ownB     [][]int32 // rows resolved by entry points without a Postings

	// Per matched group.
	pattern      strdist.Pattern
	pairs        []pairDist // the full distance matrix
	cands        []pairDist // the similar, then the contradictory candidates
	usedA, usedB []bool
}

var kernelPool = sync.Pool{New: func() any { return new(kernel) }}

// borrowKernel binds a pooled kernel for one call; giveBack returns it.
func borrowKernel(store od.Store, thetaTuple float64) *kernel {
	k := kernelPool.Get().(*kernel)
	k.store, k.theta = store, thetaTuple
	return k
}

func (k *kernel) giveBack() {
	// Nothing of the caller's stays reachable from the pool.
	k.store = nil
	k.rowA, k.rowB = nil, nil
	clear(k.ownA[:cap(k.ownA)])
	clear(k.ownB[:cap(k.ownB)])
	clear(k.res.Similar[:cap(k.res.Similar)])
	clear(k.res.Contradictory[:cap(k.res.Contradictory)])
	k.pattern.Set(nil)
	kernelPool.Put(k)
}

// breakdown compares a and b and returns the full Result in slices of
// its own, one allocation for both. It resolves both posting rows into
// the kernel's scratch: the entry point of callers without a Postings.
func (k *kernel) breakdown(a, b *od.OD, tr *PairTrace) Result {
	k.ownA = appendRow(k.ownA[:0], k.store, a)
	k.ownB = appendRow(k.ownB[:0], k.store, b)
	k.compare(a, b, k.ownA, k.ownB, true, tr)
	res := k.res
	ns := len(res.Similar)
	all := append(append(make([]MatchedPair, 0, ns+len(res.Contradictory)), res.Similar...), res.Contradictory...)
	res.Similar, res.Contradictory = all[:ns:ns], all[ns:]
	if ns == 0 {
		res.Similar = nil
	}
	if len(res.Contradictory) == 0 {
		res.Contradictory = nil
	}
	return res
}

// compare is the measure of Section 5.1 over a and b with their posting
// rows ra and rb. With pairs set, the matched pairs, the two sums and
// the score are left in k.res until the next call; with tr set, the
// union size behind every softIDF term is appended to it. The softIDF
// terms are summed as they are matched — comparable types ascending,
// within a type the similar matches by ascending distance, then the
// contradictory ones by descending distance — which is the order every
// earlier version summed them in, so scores are bit-identical whatever
// is recorded beside them.
func (k *kernel) compare(a, b *od.OD, ra, rb [][]int32, pairs bool, tr *PairTrace) float64 {
	if b.ID < a.ID || (b.ID == a.ID && b.Object < a.Object) {
		a, b, ra, rb = b, a, rb, ra
	}
	ca, cb := a.Compiled(), b.Compiled()
	k.size = k.store.Size()
	k.rowA, k.rowB = ra, rb
	k.simIDF, k.conIDF = 0, 0
	var res *Result
	if pairs {
		res = &k.res
		res.Similar, res.Contradictory = res.Similar[:0], res.Contradictory[:0]
	}
	ga, gb := ca.Groups, cb.Groups
	for i, j := 0, 0; i < len(ga) && j < len(gb); {
		switch c := strings.Compare(ga[i].Type, gb[j].Type); {
		case c < 0:
			i++ // present on one side only: non-specified data
		case c > 0:
			j++
		default:
			k.matchGroup(&group{ca, cb, ga[i].Tuples, gb[j].Tuples}, res, tr)
			i++
			j++
		}
	}
	score := 0.0
	if k.simIDF+k.conIDF > 0 {
		score = k.simIDF / (k.simIDF + k.conIDF)
	}
	if res != nil {
		res.SimilarIDF, res.ContraIDF, res.Score = k.simIDF, k.conIDF, score
	}
	return score
}

// pairDist is a scored candidate pairing inside one comparable group.
type pairDist struct {
	i, j int
	dist float64
}

// group is one comparable type both objects carry tuples of.
type group struct {
	ca, cb *od.Compiled
	as, bs []od.CompiledTuple
}

// order is the deterministic total order both matchings visit their
// candidates in: by distance (sign flips it), then by the two values,
// then by position.
func (g *group) order(x, y pairDist, sign int) int {
	if c := cmp.Compare(x.dist, y.dist); c != 0 {
		return sign * c
	}
	if x.i != y.i {
		if c := strings.Compare(g.ca.NonEmpty[g.as[x.i].Slot].Value, g.ca.NonEmpty[g.as[y.i].Slot].Value); c != 0 {
			return c
		}
	}
	if x.j != y.j {
		if c := strings.Compare(g.cb.NonEmpty[g.bs[x.j].Slot].Value, g.cb.NonEmpty[g.bs[y.j].Slot].Value); c != 0 {
			return c
		}
	}
	return cmp.Or(cmp.Compare(x.i, y.i), cmp.Compare(x.j, y.j))
}

// matchGroup matches the tuples of one type both objects carry: pairs
// with ned < θtuple greedily one-to-one by ascending distance (ODT≈),
// then the leftovers one-to-one by descending distance (ODT≠).
func (k *kernel) matchGroup(g *group, res *Result, tr *PairTrace) {
	as, bs := g.as, g.bs
	if len(as) == 1 && len(bs) == 1 && res == nil {
		// One tuple each: they pair up either way, and a score needs only
		// the side of θtuple the distance falls on, never the distance.
		a, b := as[0], bs[0]
		k.matched(g, pairDist{}, strdist.NormalizedBelowSig(a.Runes, b.Runes, a.Sig, b.Sig, k.theta), nil, tr)
		return
	}
	// Full distance matrix; groups are small (element multiplicities).
	// Values are non-empty, so the normalizing length is positive.
	k.pairs = k.pairs[:0]
	for i := range as {
		k.pattern.Set(as[i].Runes)
		for j := range bs {
			d := k.pattern.Distance(bs[j].Runes)
			k.pairs = append(k.pairs, pairDist{i, j, float64(d) / float64(max(len(as[i].Runes), len(bs[j].Runes)))})
		}
	}
	k.usedA = resetFlags(k.usedA, len(as))
	k.usedB = resetFlags(k.usedB, len(bs))

	k.cands = k.cands[:0]
	for _, p := range k.pairs {
		if p.dist < k.theta {
			k.cands = append(k.cands, p)
		}
	}
	slices.SortFunc(k.cands, func(x, y pairDist) int { return g.order(x, y, 1) })
	k.matchGreedily(g, true, res, tr)

	// Contradictory matching is bounded by the smaller leftover side (the
	// cities example).
	k.cands = k.cands[:0]
	for _, p := range k.pairs {
		if !k.usedA[p.i] && !k.usedB[p.j] {
			k.cands = append(k.cands, p)
		}
	}
	slices.SortFunc(k.cands, func(x, y pairDist) int { return g.order(x, y, -1) })
	k.matchGreedily(g, false, res, tr)
}

// matchGreedily walks the sorted candidates and matches every pair whose
// two tuples are both still free.
func (k *kernel) matchGreedily(g *group, similar bool, res *Result, tr *PairTrace) {
	for _, p := range k.cands {
		if k.usedA[p.i] || k.usedB[p.j] {
			continue
		}
		k.usedA[p.i], k.usedB[p.j] = true, true
		k.matched(g, p, similar, res, tr)
	}
}

// matched accounts one matched tuple pair: its softIDF term joins the
// similar or the contradictory sum, its union size the trace, the pair
// itself the result.
func (k *kernel) matched(g *group, p pairDist, similar bool, res *Result, tr *PairTrace) {
	slotA, slotB := g.as[p.i].Slot, g.bs[p.j].Slot
	ta, tb := g.ca.NonEmpty[slotA], g.cb.NonEmpty[slotB]
	oa := k.rowA[slotA]
	u := len(oa)
	if ta.Value != tb.Value {
		u = od.UnionSize(oa, k.rowB[slotB])
	}
	idf := od.SoftIDFValue(k.size, u)
	if similar {
		k.simIDF += idf
	} else {
		k.conIDF += idf
	}
	if tr != nil {
		if similar {
			tr.SimU = append(tr.SimU, int32(u))
		} else {
			tr.ConU = append(tr.ConU, int32(u))
		}
	}
	if res != nil {
		m := MatchedPair{A: ta, B: tb, SlotA: slotA, SlotB: slotB, Dist: p.dist, IDF: idf}
		if similar {
			res.Similar = append(res.Similar, m)
		} else {
			res.Contradictory = append(res.Contradictory, m)
		}
	}
}

// resetFlags returns flags resized to n, all false.
func resetFlags(flags []bool, n int) []bool {
	flags = slices.Grow(flags[:0], n)[:n]
	clear(flags)
	return flags
}

// Postings is Step 5's posting table for one run of comparisons: per
// object id, the object's row of posting lists, row[slot] =
// ObjectsWithExact(NonEmpty[slot]). A row is resolved on the object's
// first comparison and read by every later one, so a matched tuple pair
// costs no store lookup: the rows are indexed by (object id, slot) and
// hash nothing. The store must not change while a Postings is in use,
// and a Postings holds no more than the store's own posting slices.
type Postings struct {
	store od.Store
	rows  []atomic.Pointer[[][]int32]
}

// NewPostings returns an empty table over the objects of store with
// ids below span.
func NewPostings(store od.Store, span int) *Postings {
	return &Postings{store: store, rows: make([]atomic.Pointer[[][]int32], span)}
}

// row returns o's posting row, resolving it on first use. Two workers
// reaching a fresh row at once may both resolve it; the rows are equal
// and the first stored wins.
func (p *Postings) row(o *od.OD) [][]int32 {
	slot := &p.rows[o.ID]
	if r := slot.Load(); r != nil {
		return *r
	}
	r := appendRow(make([][]int32, 0, len(o.NonEmptyTuples())), p.store, o)
	if !slot.CompareAndSwap(nil, &r) {
		return *slot.Load()
	}
	return r
}

// appendRow appends o's posting row to dst: the one place the kernel
// asks the store for postings.
func appendRow(dst [][]int32, store od.Store, o *od.OD) [][]int32 {
	for _, t := range o.NonEmptyTuples() {
		dst = append(dst, store.ObjectsWithExact(t))
	}
	return dst
}
