package od

import "sync"

// This file holds the one bounded cache implementation every backend in
// this package shares: a generic second-chance ("clock") cache sharded
// by key hash. Every single-node backend caches similar-value results
// through it (simCache), DiskStore also decoded ODs and posting lists;
// PartitionedStore caches merged fan-out answers. Correctness never
// depends on a cache — every entry is recomputable from the segment
// files or the members — so eviction policy only affects speed, and the
// hit/miss/eviction counters exist to make that speed observable
// (CacheStats) instead of guessed at.

// CacheStats is a point-in-time snapshot of one bounded cache's
// counters. Hits and Misses count get calls, Evictions counts entries
// dropped to capacity; Entries/Capacity describe current occupancy.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	Capacity  int
}

// lruShard is one lock's worth of a shardedLRU: entries are linked into
// a ring in insertion order, which grows to the shard's capacity and is
// recycled from then on. A hit only sets the entry's reference bit —
// the Step 5 loop hits these caches twice per matched tuple pair, and
// relinking a recency list on each of them cost more than the lookup.
// An insert into a full shard sweeps forward from the oldest entry,
// clearing reference bits, and overwrites the first entry not hit since
// the sweep last passed it.
type lruShard[K comparable, V any] struct {
	mu   sync.Mutex
	cap  int
	m    map[K]*lruEntry[K, V]
	last *lruEntry[K, V] // most recently written; last.next is where the sweep resumes

	hits, misses, evictions uint64

	_ [64]byte // shards sit in one array: keep their locks on separate cache lines
}

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	ref  bool
	next *lruEntry[K, V]
}

func (c *lruShard[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	e.ref = true
	return e.val, true
}

// put inserts or refreshes an entry.
func (c *lruShard[K, V]) put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[k]; ok {
		e.val = v
		return
	}
	// Ring and map grow on demand, one entry at a time: every
	// single-node store carries these caches, and most never come near
	// their capacity.
	if len(c.m) < c.cap {
		e := &lruEntry[K, V]{key: k, val: v}
		if c.last == nil {
			e.next = e
		} else {
			e.next, c.last.next = c.last.next, e
		}
		c.m[k], c.last = e, e
		return
	}
	e := c.last.next
	for ; e.ref; e = e.next {
		e.ref = false
	}
	delete(c.m, e.key)
	e.key, e.val = k, v
	c.m[k], c.last = e, e
	c.evictions++
}

// lruShardCount spreads a shardedLRU's lock across this many
// independent shards (power of two for mask routing).
const lruShardCount = 16

// shardedLRU partitions the cache by key hash so the parallel reduce
// and compare stages don't serialize on a single cache mutex. Each
// shard counts its own hits, misses and evictions under the lock it
// already holds: the counters are diagnostics, and one process-wide
// atomic per get was a cache line every worker wrote.
type shardedLRU[K comparable, V any] struct {
	shards [lruShardCount]lruShard[K, V]
	hash   func(K) uint32
}

func newShardedLRU[K comparable, V any](capacity int, hash func(K) uint32) *shardedLRU[K, V] {
	per := max(capacity/lruShardCount, 64)
	s := &shardedLRU[K, V]{hash: hash}
	for i := range s.shards {
		s.shards[i].cap = per
		s.shards[i].m = map[K]*lruEntry[K, V]{}
	}
	return s
}

func (s *shardedLRU[K, V]) get(k K) (V, bool) {
	return s.shards[s.hash(k)&(lruShardCount-1)].get(k)
}

func (s *shardedLRU[K, V]) put(k K, v V) {
	s.shards[s.hash(k)&(lruShardCount-1)].put(k, v)
}

// stats sums the shards' counters and occupancy. Shards are read one
// after another, so a snapshot taken under concurrent queries is
// approximate — fine for diagnostics.
func (s *shardedLRU[K, V]) stats() CacheStats {
	var st CacheStats
	for i := range s.shards {
		c := &s.shards[i]
		c.mu.Lock()
		st.Hits += c.hits
		st.Misses += c.misses
		st.Evictions += c.evictions
		st.Entries += len(c.m)
		st.Capacity += c.cap
		c.mu.Unlock()
	}
	return st
}

// valueKey names one (type, value) — what an occurrence key names,
// without the concatenation, so the hot cache lookups build no string.
type valueKey struct{ typ, val string }

func hashValueKey(k valueKey) uint32 { return fnv1aOcc(k.typ, k.val, 0) }

// epochKey is a cache key for an answer that a mutation batch can
// stale: a (type, value) under the owning type's mutation epoch. A batch
// bumps the epochs of exactly the types it touched, which orphans their
// cached answers (they age out) and leaves every other type's entries
// hit. A struct, not a concatenation, so the hit path builds no string.
type epochKey struct {
	epoch    uint64
	typ, val string
}

func hashEpochKey(k epochKey) uint32 { return fnv1aOcc(k.typ, k.val, uint32(k.epoch)) }

// simCache is the bounded similar-value cache of the single-node
// backends: SimilarValues answers by (type, value) in a shardedLRU of
// diskSimCacheSize entries, keyed under the type's epoch — only a value
// of the same type entering, leaving or changing its postings can alter
// an answer. Bumps happen inside mutation batches, which never overlap
// queries, so the epochs need no lock.
type simCache struct {
	lru    *shardedLRU[epochKey, []ValueMatch]
	epochs map[string]uint64
}

func newSimCache() *simCache {
	return &simCache{
		lru:    newShardedLRU[epochKey, []ValueMatch](diskSimCacheSize, hashEpochKey),
		epochs: map[string]uint64{},
	}
}

func (c *simCache) key(t Tuple) epochKey { return epochKey{c.epochs[t.Type], t.Type, t.Value} }

func (c *simCache) get(t Tuple) ([]ValueMatch, bool) { return c.lru.get(c.key(t)) }

func (c *simCache) put(t Tuple, matches []ValueMatch) { c.lru.put(c.key(t), matches) }

// touch orphans the cached answers of one type.
func (c *simCache) touch(typ string) { c.epochs[typ]++ }

// hashID routes int32 OD ids (Fibonacci hashing so sequential ids
// spread across shards).
func hashID(id int32) uint32 { return uint32(id) * 2654435761 }

// fnv1aOcc is the one hash every string-keyed routing decision in this
// package shares — LRU cache buckets and PartitionedStore's partition
// choice (the only seeded user; the seed is part of a federation's
// identity): FNV-1a over the occurrence key typ+"\x00"+val, computed
// without building the key, from an offset basis xor-ed with seed.
func fnv1aOcc(typ, val string, seed uint32) uint32 {
	h := fnv1aAdd(uint32(2166136261)^seed, typ)
	h *= 16777619 // the separator: h ^= 0 leaves h as it is
	return fnv1aAdd(h, val)
}

func fnv1aAdd(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
