package od

import (
	"sort"
	"sync"

	"repro/internal/od/odcodec"
	"repro/internal/strdist"
)

// This file is the variant-routing layer of the distributed store: each
// federation member summarizes its deletion-variant buckets into a
// compact per-type membership filter at Finalize/OpenPartitioned, and
// the coordinator probes a query's own deletion variants against those
// filters to skip members that provably cannot contribute to the
// answer. The filters are one-sided: a false positive only costs an
// extra member round trip, while absence is exact — FastSS guarantees
// that two strings within edit distance d share a deletion variant at
// depth d, so a query whose variants (at the edit budget the θtuple
// check permits) miss every bucket of a member cannot match any value
// that member owns. Whenever a type's edit need exceeds the indexed
// tier, or a member's slice of the type is not variant-indexed, the
// filter reports itself uncovered and the coordinator falls back to the
// full fan-out — bit-identity with MemStore never depends on a filter.

// VariantFilter is one (member, type) routing filter: a bloom set over
// the member's deletion-variant bucket keys plus the metadata the
// coordinator needs to decide whether the filter covers a query.
type VariantFilter struct {
	// Type is the real-world type the filter describes.
	Type string
	// Covered reports whether Bits is a complete summary of the
	// member's variant buckets at Budget. When false the coordinator
	// must always include the member for this type.
	Covered bool
	// Budget is the deletion depth the member's variants are indexed
	// at (0..2). Meaningful only when Covered.
	Budget int
	// MaxLen is the longest value rune length of the type at the
	// member. The coordinator maintains it across mutations: the edit
	// need of a query derives from max(query length, MaxLen), so an
	// added long value widens the need and disables skipping before it
	// could turn unsound.
	MaxLen int
	// Bits is the bloom bitset (power-of-two word count) over the
	// 64-bit hashes of the member's variant bucket keys.
	Bits []uint64
}

// bloom parameters: ~10 bits and 4 probes per variant give a false-
// positive rate around 1% — a wasted fan-out per ~100 skippable
// queries, never a wrong answer.
const (
	bloomBitsPerVariant = 10
	bloomProbes         = 4
)

// newBloomBits sizes a bloom bitset for n variants (power-of-two words
// so probes mask instead of mod).
func newBloomBits(n int) []uint64 {
	bits := n * bloomBitsPerVariant
	if bits < 256 {
		bits = 256
	}
	words := 1
	for words*64 < bits {
		words <<= 1
	}
	return make([]uint64, words)
}

// variantHash is the 64-bit FNV-1a every routing filter hashes bucket
// keys with — both ends of the wire must agree on it, like the 32-bit
// fnv1aOcc both ends route occurrence keys with.
func variantHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// bloomAdd sets the key's probe bits (double hashing off the one
// 64-bit hash).
func bloomAdd(bits []uint64, h uint64) {
	mask := uint64(len(bits)*64 - 1)
	h2 := (h >> 33) | 1
	for i := uint64(0); i < bloomProbes; i++ {
		idx := (h + i*h2) & mask
		bits[idx>>6] |= 1 << (idx & 63)
	}
}

// bloomHas reports whether every probe bit of the key is set.
func bloomHas(bits []uint64, h uint64) bool {
	mask := uint64(len(bits)*64 - 1)
	h2 := (h >> 33) | 1
	for i := uint64(0); i < bloomProbes; i++ {
		idx := (h + i*h2) & mask
		if bits[idx>>6]&(1<<(idx&63)) == 0 {
			return false
		}
	}
	return true
}

// canSkipSimilar reports whether the filter proves the member's
// SimilarValues(q) is empty. A nil filter means the member owns no
// values of the type at all — trivially skippable. The rule mirrors
// typeIndex.collect's coverage check: a match needs at most
// MaxEditsBelow(θ, max(|q|, MaxLen)) edits; if that need fits the
// indexed budget and none of q's deletion variants at the *need* depth
// hit the bloom, FastSS rules out every value the member holds.
func (f *VariantFilter) canSkipSimilar(q string, qLen int, theta float64) bool {
	if f == nil {
		return true
	}
	if !f.Covered {
		return false
	}
	m := qLen
	if f.MaxLen > m {
		m = f.MaxLen
	}
	need := strdist.MaxEditsBelow(theta, m)
	if need < 0 {
		// No edit count satisfies θ — nothing can match anywhere.
		return true
	}
	if need > f.Budget {
		return false // query out-ranges the indexed tier: full fan-out
	}
	for _, v := range strdist.DeletionVariants(q, need) {
		if bloomHas(f.Bits, variantHash(v)) {
			return false
		}
	}
	return true
}

// canSkipExact reports whether the filter proves the member holds no
// occurrence of the exact value: every stored value is its own
// depth-zero variant, so a bloom miss on the value itself is a proof
// of absence.
func (f *VariantFilter) canSkipExact(v string) bool {
	if f == nil {
		return true
	}
	if !f.Covered {
		return false
	}
	return !bloomHas(f.Bits, variantHash(v))
}

// addValue folds one value newly added to the member into the
// coordinator's copy of the filter, keeping skip decisions complete
// across mutations: the value's variants at the indexed budget enter
// the bloom and MaxLen grows with it. Removals need no counterpart —
// stale bits are false positives, which only widen the fan-out.
func (f *VariantFilter) addValue(val string) {
	if l := len([]rune(val)); l > f.MaxLen {
		f.MaxLen = l
	}
	if !f.Covered {
		return
	}
	for _, v := range strdist.DeletionVariants(val, f.Budget) {
		bloomAdd(f.Bits, variantHash(v))
	}
}

// variantFilterSource is the backend extension RoutingFilters
// dispatches to: stores that can enumerate their variant buckets build
// real filters, everything else gets the generic uncovered set.
type variantFilterSource interface {
	routingFilters() []VariantFilter
}

// RoutingFilters summarizes a finalized store's per-type variant
// buckets into routing filters, sorted by type. MemStore and DiskStore
// produce covered filters for every type whose deletion
// neighborhood is indexed and unmutated (DiskStore reads the bucket
// keys straight from the persisted neighbor segment); any other store
// — and any type outside the indexed tier — yields an uncovered entry,
// which routes correctly (the member is always included) but never
// skips. The per-type entry list is complete: a type absent from the
// result provably has no live values at the store.
func RoutingFilters(s Store) []VariantFilter {
	if src, ok := s.(variantFilterSource); ok {
		return src.routingFilters()
	}
	sts := s.Stats()
	out := make([]VariantFilter, 0, len(sts))
	for _, st := range sts {
		out = append(out, VariantFilter{Type: st.Type, MaxLen: st.MaxLen})
	}
	return out
}

// sortVariantFilters orders a filter set by type, the canonical order
// every source emits.
func sortVariantFilters(fs []VariantFilter) {
	sort.Slice(fs, func(i, j int) bool { return fs[i].Type < fs[j].Type })
}

// encodeRoutingFilters converts one member's filters to their
// federation-manifest record (see odcodec.Federation.RoutingFilters).
func encodeRoutingFilters(fs []VariantFilter) []odcodec.RoutingFilter {
	out := make([]odcodec.RoutingFilter, len(fs))
	for i, f := range fs {
		out[i] = odcodec.RoutingFilter{Type: f.Type, Covered: f.Covered, Budget: f.Budget, MaxLen: f.MaxLen, Bits: f.Bits}
	}
	return out
}

// decodeRoutingFilters restores one member's filters from the
// federation manifest. The manifest slices transfer ownership — the
// coordinator mutates its copy on noteAdded exactly like a refetched
// set.
func decodeRoutingFilters(fs []odcodec.RoutingFilter) []VariantFilter {
	out := make([]VariantFilter, len(fs))
	for i, f := range fs {
		out[i] = VariantFilter{Type: f.Type, Covered: f.Covered, Budget: f.Budget, MaxLen: f.MaxLen, Bits: f.Bits}
	}
	return out
}

// memberRouting is the coordinator's mutable view of one member's
// filters, keyed by type.
type memberRouting struct {
	types map[string]*VariantFilter
}

func newMemberRouting(filters []VariantFilter) *memberRouting {
	m := &memberRouting{types: make(map[string]*VariantFilter, len(filters))}
	for i := range filters {
		f := filters[i]
		m.types[f.Type] = &f
	}
	return m
}

// noteAdded records one (type, value) newly shipped to the member. A
// type the member has never seen gets an uncovered entry: the member
// must be included for it from now on (its delta overlay answers by
// scan), and — equally important — the type-absent skip rule must stop
// firing for this member.
func (m *memberRouting) noteAdded(typ, val string) {
	f := m.types[typ]
	if f == nil {
		f = &VariantFilter{Type: typ}
		m.types[typ] = f
	}
	f.addValue(val)
}

// adoptFresh folds a freshly refetched filter set into the
// coordinator's copy after a mutation batch. Covered entries replace
// the local ones wholesale — this is the only path by which removed
// values ever leave a filter's bloom, because the member rebuilt the
// type's index when its delta compaction threshold tripped. Uncovered
// entries keep the local grow-only filter (noteAdded already extended
// it with the batch; the member's uncovered report carries no more
// information). Types missing from the fresh set are deleted: the
// filter list is complete, so absence proves the member holds no live
// values of the type, and the nil entry is itself the strongest skip.
func (m *memberRouting) adoptFresh(filters []VariantFilter) {
	fresh := make(map[string]bool, len(filters))
	for i := range filters {
		f := filters[i]
		fresh[f.Type] = true
		if f.Covered {
			m.types[f.Type] = &f
		} else if m.types[f.Type] == nil {
			m.types[f.Type] = &f
		}
	}
	for typ := range m.types {
		if !fresh[typ] {
			delete(m.types, typ)
		}
	}
}

// RoutingStats counts the coordinator's filter decisions, one
// monotonically growing snapshot per federation.
type RoutingStats struct {
	// SimFanouts is the number of similar-value fan-outs computed
	// (cache misses that reached the routing layer).
	SimFanouts uint64
	// MemberQueries is the number of member SimilarValues calls
	// actually issued by those fan-outs.
	MemberQueries uint64
	// MemberSkips is the number of member calls the filters proved
	// unnecessary.
	MemberSkips uint64
	// ExactSkips is the number of ObjectsWithExact lookups answered
	// with no member call at all.
	ExactSkips uint64
}

// WireStats is a transport client's cumulative wire counters. The od
// package defines the type (transports import od, not the other way
// around); odrpc.Client implements WireCounter over it.
type WireStats struct {
	FramesOut  uint64 // request frames written
	FramesIn   uint64 // reply frames read
	BytesOut   uint64 // bytes written, framing included
	BytesIn    uint64 // bytes read, framing included
	RoundTrips uint64 // request groups awaited (a pipelined batch counts once)
}

// WireCounter is the optional Partition extension exposing wire
// counters; in-process members have no wire and do not implement it.
type WireCounter interface {
	WireStats() WireStats
}

// simFlight collapses concurrent identical similar-value fan-outs into
// one member exchange (singleflight): the first caller computes, the
// rest wait and share the result. A leader panic — the typed poison of
// a failed federation — re-raises in every waiter, so the fail-stop
// contract survives the collapsing.
type simFlight struct {
	mu sync.Mutex
	m  map[epochKey]*flightCall
}

type flightCall struct {
	done     chan struct{}
	val      []ValueMatch
	panicked any
}

// do runs fn once per concurrent key, reporting whether the result was
// shared from another caller's flight.
func (g *simFlight) do(key epochKey, fn func() []ValueMatch) ([]ValueMatch, bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[epochKey]*flightCall{}
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-c.done
		if c.panicked != nil {
			panic(c.panicked)
		}
		return c.val, true
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			c.panicked = r
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
		if c.panicked != nil {
			panic(c.panicked)
		}
	}()
	c.val = fn()
	return c.val, false
}

// BatchQueryStore is the optional Store extension the compare stage
// uses to warm a whole candidate batch's similar-value lookups in one
// round trip per federation member instead of one per tuple. Prefetch
// only fills caches — the subsequent SimilarValues calls return
// bit-identical answers whether or not it ran.
type BatchQueryStore interface {
	PrefetchSimilar(ts []Tuple)
}
