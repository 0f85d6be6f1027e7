// Package od implements object descriptions (ODs), the flat
// value/name-pair representation Definition 3 of the paper assigns to every
// duplicate candidate, together with the stores and indexes the similarity
// measure and the object filter are computed from:
//
//   - an occurrence (inverted) index from (real-world type, value) to the
//     set of objects containing such a tuple, which is what softIDF
//     (Definition 8) counts, and
//   - per-type distinct-value indexes that answer "which other values of
//     this type are within θtuple normalized edit distance?", powering both
//     the object filter (Section 5.2) and the lossless candidate-pair
//     blocking used in Step 5.
//
// Store is the backend-agnostic interface the pipeline programs against.
// Three backends ship with the repo and return bit-identical results:
// MemStore is the single-map reference implementation, DiskStore serves
// the same queries from odcodec segment files on disk so indexes survive
// restarts (OpenDiskStore) and retained memory stays bounded by its
// caches rather than corpus size, and PartitionedStore federates the
// indexes across N partition members — each itself a MemStore or a
// DiskStore, in-process or behind the internal/od/odrpc wire protocol
// (see partition.go). The index *construction* logic they share lives
// in builder.go; Save snapshots any single-node finalized backend into
// the DiskStore segment format, SavePartitioned persists a federation.
//
// The store lifecycle is Add → Finalize → queries, optionally followed
// by post-Finalize mutation: all three backends implement MutableStore,
// whose AddAfterFinalize/Remove batches maintain the occurrence and
// similarity indexes incrementally through the delta overlays of
// delta.go (per-type value overlays, live posting lists, a compaction
// threshold that falls back to a type-scoped rebuild; DiskStore
// additionally persists every batch as an append-only odcodec delta
// segment before applying it). The mutable parity suite pins every
// backend's post-mutation answers to a fresh build over the live set.
package od

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/strdist"
	"repro/internal/xmltree"
)

// Tuple is one OD tuple (value, name) plus the real-world type that the
// mapping M assigns to its name. Tuples are comparable iff their Type
// matches (Section 5, condition 1).
type Tuple struct {
	Value string
	Name  string // absolute schema XPath of the element
	Type  string // real-world type id; defaults to Name when unmapped
}

// String renders the tuple like the paper's examples: (value, name).
func (t Tuple) String() string {
	return fmt.Sprintf("(%s, %s)", t.Value, t.Name)
}

// occKey is the occurrence-index key of the tuple.
func (t Tuple) occKey() string {
	return t.Type + "\x00" + t.Value
}

// OD is the description of one duplicate candidate. Node is a
// convenience pointer back at the candidate element; it is nil when the
// OD was flattened from a transient subtree (streaming ingestion) or
// built without a tree (tests). No store index or similarity computation
// reads it, but consumers that re-examine the original element — e.g.
// the tree-edit baseline — require it and only work with materialized
// sources.
type OD struct {
	ID     int32  // index in the store
	Object string // positionally qualified XPath of the candidate element
	Source int    // which input document the candidate came from
	Tuples []Tuple
	Node   *xmltree.Node

	compiled atomic.Value // *Compiled, see Compiled()
}

// NonEmptyTuples returns the tuples carrying actual data. Tuples with empty
// values exist (complex content without text) but are never similar nor
// contradictory — the rationale behind Condition 1. The slice belongs to
// the OD's compiled form (see Compiled) and must not be modified.
func (o *OD) NonEmptyTuples() []Tuple {
	return o.Compiled().NonEmpty
}

// Compiled is an object description decoded once for the Step 4–5
// kernel: the tuples that carry data, and the same tuples grouped by
// real-world type with their values as runes. Comparing two ODs walks
// the two group lists in step; nothing is decoded, grouped or sorted per
// pair. A Compiled is immutable once built and shared by every reader
// of its OD.
type Compiled struct {
	// NonEmpty holds the tuples with a non-empty value, in OD order. It
	// is the OD's own Tuples slice when none is empty.
	NonEmpty []Tuple
	// Groups holds the same tuples by ascending Type; within a group
	// they keep OD order.
	Groups []TypeGroup

	src []Tuple // the Tuples slice this was compiled from
}

// TypeGroup is the tuples of one real-world type within one OD.
type TypeGroup struct {
	Type   string
	Tuples []CompiledTuple
}

// CompiledTuple is one non-empty tuple ready for distance computations.
type CompiledTuple struct {
	Runes []rune // the value, decoded
	Sig   uint64 // strdist.Signature(Runes)
	Slot  int    // index of the tuple in Compiled.NonEmpty
}

// Compiled returns the OD's compiled form, building it on first use — in
// the pipeline that is the object's first filter bound or comparison, on
// whichever worker gets there; every later call is a load. Concurrent
// first calls may both build — the results are equal and either is
// kept. An OD whose Tuples slice was replaced since recompiles; editing
// tuple values in place after first use is not supported (tuples are
// final at Add time, see Store).
func (o *OD) Compiled() *Compiled {
	if c, _ := o.compiled.Load().(*Compiled); c != nil && len(c.src) == len(o.Tuples) &&
		(len(c.src) == 0 || &c.src[0] == &o.Tuples[0]) {
		return c
	}
	c := compile(o.Tuples)
	o.compiled.Store(c)
	return c
}

func compile(tuples []Tuple) *Compiled {
	c := &Compiled{src: tuples, NonEmpty: tuples}
	n, nRunes := 0, 0
	for _, t := range tuples {
		if t.Value != "" {
			n++
			nRunes += len(t.Value) // bytes bound runes from above
		}
	}
	if n < len(tuples) {
		c.NonEmpty = make([]Tuple, 0, n)
		for _, t := range tuples {
			if t.Value != "" {
				c.NonEmpty = append(c.NonEmpty, t)
			}
		}
	}
	if n == 0 {
		return c
	}
	runes := make([]rune, 0, nRunes)
	all := make([]CompiledTuple, n)
	for i, t := range c.NonEmpty {
		from := len(runes)
		runes = strdist.AppendRunes(runes, t.Value)
		all[i] = CompiledTuple{Runes: runes[from:len(runes):len(runes)], Slot: i}
		all[i].Sig = strdist.Signature(all[i].Runes)
	}
	slices.SortStableFunc(all, func(x, y CompiledTuple) int {
		return strings.Compare(c.NonEmpty[x.Slot].Type, c.NonEmpty[y.Slot].Type)
	})
	for lo := 0; lo < n; {
		typ := c.NonEmpty[all[lo].Slot].Type
		hi := lo + 1
		for hi < n && c.NonEmpty[all[hi].Slot].Type == typ {
			hi++
		}
		c.Groups = append(c.Groups, TypeGroup{Type: typ, Tuples: all[lo:hi:hi]})
		lo = hi
	}
	return c
}

// ValueMatch is one distinct value similar to a queried value.
type ValueMatch struct {
	Value   string
	Objects []int32 // objects holding a tuple with this value (sorted)
	Dist    float64 // normalized edit distance to the query
}

// TypeStats describes one indexed real-world type, for diagnostics.
type TypeStats struct {
	Type           string
	DistinctValues int
	MaxLen         int
	EditBudget     int
	Indexed        bool // true when the deletion-neighborhood index is used
}

// Store is the backend-agnostic interface over a candidate set ΩT and the
// indexes built from it.
//
// Every backend honors the same lifecycle contract:
//
//  1. Build phase. Populate with Add. Each Add assigns the OD the next
//     sequential ID (insertion order). The OD's Tuples are final at Add
//     time, but Object may still be empty and filled in by the caller any
//     time before Finalize: streaming ingestion resolves positional paths
//     only once its pass completes, so backends must not snapshot Object
//     (persist it, hash it, copy it) before Finalize.
//  2. Query phase. Call Finalize(θtuple) exactly once; it seals the store
//     and builds the occurrence and similarity indexes. Afterwards Add
//     panics, every query method is safe for concurrent use, and queries
//     before Finalize panic.
//  3. Mutation phase (optional). Backends that also implement
//     MutableStore accept post-Finalize AddAfterFinalize/Remove batches
//     that maintain the indexes incrementally. Mutation calls must not
//     overlap each other or any query; between batches the store serves
//     concurrent queries as before.
//
// Implementations must answer every query deterministically and in the
// canonical orders documented per method — the detection pipeline's
// output for a given input must not depend on the backend chosen. The
// parity suites (internal/od and internal/core) hold every backend to
// bit-identical results against MemStore, the reference implementation.
//
// A store restored from disk (OpenDiskStore) starts life directly in the
// query phase; Add and Finalize panic on it.
type Store interface {
	// Add appends an OD, assigning its ID. Must precede Finalize; see the
	// lifecycle contract above for the Object mutability window.
	Add(o *OD) *OD
	// Finalize builds the occurrence and similarity indexes for θtuple.
	Finalize(theta float64)
	// Size returns |ΩT|, the number of objects.
	Size() int
	// Theta returns the tuple threshold the indexes were built for.
	Theta() float64
	// OD returns the object description with the given ID. For disk-backed
	// stores this may decode the OD from its segment on demand; callers on
	// hot paths should not assume it is a free slice lookup.
	OD(id int32) *OD
	// ODs returns all object descriptions, indexed by ID. Disk-backed
	// stores materialize the full set in memory on first call — prefer
	// OD(id) unless the whole slice is genuinely needed.
	ODs() []*OD
	// ObjectsWithExact returns the sorted ids of objects containing a
	// tuple with exactly this (type, value), or nil.
	ObjectsWithExact(t Tuple) []int32
	// SimilarValues returns every distinct value of t.Type whose
	// normalized edit distance to t.Value is strictly below θtuple —
	// including the exact value itself if present — ordered by ascending
	// distance, then lexicographically.
	SimilarValues(t Tuple) []ValueMatch
	// SoftIDF implements Definition 8 for a pair of similar tuples.
	SoftIDF(a, b Tuple) float64
	// SoftIDFSingle is softIDF of a tuple paired with itself.
	SoftIDFSingle(t Tuple) float64
	// Neighbors returns the ids of all objects (excluding self) sharing at
	// least one exact-or-similar non-empty tuple value of a common type
	// with object id — the lossless blocking set for Step 5.
	Neighbors(id int32) []int32
	// Stats returns per-type index statistics sorted by type name.
	Stats() []TypeStats
}

// MutableStore extends Store with post-Finalize mutations, so a living
// corpus (the paper's CDDB scenario) can evolve without rebuilding the
// indexes from scratch. MemStore, DiskStore and PartitionedStore all
// implement it; the mutable parity suite pins their post-mutation query
// results bit-identical to a fresh build over the live set.
//
// IDs are never reused or renumbered in process: AddAfterFinalize
// continues the sequential assignment (so the ID space [0, IDSpan())
// grows monotonically) and Remove leaves a permanent hole. Size()
// reports live objects only — it is the |ΩT| of Definition 8 — while
// IDSpan() bounds loops over IDs; OD(id) returns nil and ODs() carries a
// nil slot for removed IDs. Snapshots written by Save compact the ID
// space (see Save).
//
// Mutations are batches and apply atomically from the caller's view: a
// failed batch (invalid Remove id, delta-persistence error on DiskStore)
// leaves the store unchanged. Batches must be serialized by the caller
// and must not overlap queries; between batches all query methods remain
// safe for concurrent use.
type MutableStore interface {
	Store
	// AddAfterFinalize appends new object descriptions to a finalized
	// store, assigning IDs from IDSpan() upward, and incrementally
	// maintains the occurrence and similarity indexes. Unlike Add, the
	// ODs must be final — Object included — when passed in.
	AddAfterFinalize(ods []*OD) error
	// Remove deletes the given live objects from the store and all
	// indexes. The batch is validated up front; any bad id fails the
	// whole batch without applying anything.
	Remove(ids []int32) error
	// Alive reports whether id is assigned and not removed.
	Alive(id int32) bool
	// IDSpan returns the exclusive upper bound of assigned IDs,
	// including removed ones.
	IDSpan() int32
}

// SoftIDFValue exposes the Definition 8 computation — log(size/union)
// with the phantom-occurrence guard — for callers that replay cached
// union sizes against a changed |ΩT| (see internal/sim's trace replay).
// SoftIDFValue(s.Size(), OccUnion(s, a, b)) equals s.SoftIDF(a, b) bit
// for bit on every backend.
func SoftIDFValue(size, union int) float64 {
	return softIDF(size, union)
}

// OccUnion returns |occ(a) ∪ occ(b)|, the union-cardinality argument of
// Definition 8, from the store's exact occurrence postings.
func OccUnion(s Store, a, b Tuple) int {
	oa := s.ObjectsWithExact(a)
	if a.Type == b.Type && a.Value == b.Value {
		return len(oa)
	}
	return UnionSize(oa, s.ObjectsWithExact(b))
}

// softIDF computes log(|ΩT| / union) with the phantom-occurrence guard of
// Definition 8, shared by every Store implementation.
func softIDF(size, union int) float64 {
	if union == 0 {
		union = 1
	}
	return math.Log(float64(size) / float64(union))
}

// UnionSize returns |a ∪ b| for two ascending id slices — Definition 8's
// union cardinality for callers that already hold both posting lists.
func UnionSize(oa, ob []int32) int {
	i, j, n := 0, 0, 0
	for i < len(oa) && j < len(ob) {
		switch {
		case oa[i] == ob[j]:
			i++
			j++
		case oa[i] < ob[j]:
			i++
		default:
			j++
		}
		n++
	}
	n += len(oa) - i + len(ob) - j
	return n
}

// idSet is a reusable bitset over object ids: the scratch neighborsOf
// merges posting lists through. Pooled, because Store.Neighbors carries
// no scratch argument.
type idSet struct{ words []uint64 }

var idSetPool = sync.Pool{New: func() any { return new(idSet) }}

// neighborsOf is the blocking-set computation shared by the stores: any
// object pair with sim > 0 shares at least one similar tuple pair, so the
// union of SimilarValues object sets over o's tuples is lossless. The
// posting lists are ORed into a pooled bitset and read back ascending —
// no per-call set, no sort. Only the window of words the call touched is
// read back and zeroed, so the cost follows the neighbours' id spread,
// not the largest id the pooled set ever held.
func neighborsOf(s Store, id int32) []int32 {
	// The set goes back to the pool only once it has been read back to
	// all zeroes; a store panicking mid-merge leaves it to the collector.
	set := idSetPool.Get().(*idSet)
	n, lo, hi := 0, math.MaxInt, -1
	for _, t := range s.OD(id).NonEmptyTuples() {
		for _, m := range s.SimilarValues(t) {
			for _, other := range m.Objects {
				w := int(other >> 6)
				if w >= len(set.words) {
					set.words = append(set.words, make([]uint64, w+1-len(set.words))...)
				}
				if bit := uint64(1) << (other & 63); other != id && set.words[w]&bit == 0 {
					set.words[w] |= bit
					n++
					lo, hi = min(lo, w), max(hi, w)
				}
			}
		}
	}
	if n == 0 {
		idSetPool.Put(set)
		return nil
	}
	out := make([]int32, 0, n)
	for w := lo; w <= hi; w++ {
		for word := set.words[w]; word != 0; word &= word - 1 {
			out = append(out, int32(w<<6+bits.TrailingZeros64(word)))
		}
		set.words[w] = 0
	}
	idSetPool.Put(set)
	return out
}

// sortMatches orders SimilarValues results canonically: ascending distance,
// then lexicographic value. Values are distinct, so the order is total.
func sortMatches(out []ValueMatch) {
	slices.SortFunc(out, func(x, y ValueMatch) int {
		if c := cmp.Compare(x.Dist, y.Dist); c != 0 {
			return c
		}
		return strings.Compare(x.Value, y.Value)
	})
}

// sortInt32s sorts ids ascending.
func sortInt32s(ids []int32) { slices.Sort(ids) }

// sortTypeStats orders diagnostics rows by type name.
func sortTypeStats(out []TypeStats) {
	slices.SortFunc(out, func(x, y TypeStats) int { return strings.Compare(x.Type, y.Type) })
}

// splitOccKey splits an occurrence key back into (type, value).
func splitOccKey(key string) (string, string) {
	for i := 0; i < len(key); i++ {
		if key[i] == 0 {
			return key[:i], key[i+1:]
		}
	}
	return key, ""
}
