package od

import (
	"sync"
	"sync/atomic"
)

// This file holds the one bounded cache implementation every backend in
// this package shares: a generic LRU sharded by key hash. Every
// single-node backend caches similar-value results through it (simCache),
// DiskStore also decoded ODs and posting lists; PartitionedStore caches
// merged fan-out answers. Correctness never
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

// lruShard is one lock's worth of a shardedLRU: a mutex-guarded LRU
// over an intrusive doubly-linked list (avoids container/list's
// interface boxing on this hot path).
type lruShard[K comparable, V any] struct {
	mu  sync.Mutex
	cap int
	m   map[K]*lruEntry[K, V]
	// head = most recent.
	head, tail *lruEntry[K, V]
}

type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruEntry[K, V]
}

func newLRUShard[K comparable, V any](capacity int) *lruShard[K, V] {
	// The map grows on demand: every single-node store carries these
	// caches now, and most never come near their capacity.
	return &lruShard[K, V]{cap: capacity, m: map[K]*lruEntry[K, V]{}}
}

func (c *lruShard[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.moveToFront(e)
	return e.val, true
}

// put inserts or refreshes an entry, reporting whether another entry
// was evicted to make room.
func (c *lruShard[K, V]) put(k K, v V) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[k]; ok {
		e.val = v
		c.moveToFront(e)
		return false
	}
	e := &lruEntry[K, V]{key: k, val: v}
	c.m[k] = e
	c.pushFront(e)
	if len(c.m) > c.cap {
		evict := c.tail
		c.unlink(evict)
		delete(c.m, evict.key)
		return true
	}
	return false
}

func (c *lruShard[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func (c *lruShard[K, V]) pushFront(e *lruEntry[K, V]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *lruShard[K, V]) unlink(e *lruEntry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *lruShard[K, V]) moveToFront(e *lruEntry[K, V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// lruShardCount spreads a shardedLRU's lock across this many
// independent shards (power of two for mask routing).
const lruShardCount = 16

// shardedLRU partitions an LRU by key hash so the parallel reduce and
// compare stages don't serialize on a single cache mutex: every get
// mutates recency under a lock, which made one global cache the
// contention point of DiskStore's hot paths. The counters are shared
// across shards and updated atomically — they are diagnostics, not
// synchronization.
type shardedLRU[K comparable, V any] struct {
	shards [lruShardCount]*lruShard[K, V]
	hash   func(K) uint32

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

func newShardedLRU[K comparable, V any](capacity int, hash func(K) uint32) *shardedLRU[K, V] {
	per := capacity / lruShardCount
	if per < 64 {
		per = 64
	}
	s := &shardedLRU[K, V]{hash: hash}
	for i := range s.shards {
		s.shards[i] = newLRUShard[K, V](per)
	}
	return s
}

func (s *shardedLRU[K, V]) get(k K) (V, bool) {
	v, ok := s.shards[s.hash(k)&(lruShardCount-1)].get(k)
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return v, ok
}

func (s *shardedLRU[K, V]) put(k K, v V) {
	if s.shards[s.hash(k)&(lruShardCount-1)].put(k, v) {
		s.evictions.Add(1)
	}
}

// stats snapshots the cache's counters and occupancy. The counters are
// read individually, so a snapshot taken under concurrent queries is
// approximate — fine for diagnostics.
func (s *shardedLRU[K, V]) stats() CacheStats {
	st := CacheStats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Evictions: s.evictions.Load(),
	}
	for i := range s.shards {
		st.Entries += s.shards[i].len()
		st.Capacity += s.shards[i].cap
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

// fnv1a is the one FNV-1a implementation every string-keyed routing
// decision in this package shares — LRU cache buckets, ShardedStore's
// shard choice, PartitionedStore's partition choice (the only seeded
// user; the seed is part of a federation's identity).
func fnv1a(key string, seed uint32) uint32 {
	return fnv1aAdd(uint32(2166136261)^seed, key)
}

// fnv1aOcc is fnv1a over the occurrence key of (typ, val) without
// building it: fnv1aOcc(typ, val, seed) == fnv1a(typ+"\x00"+val, seed).
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
