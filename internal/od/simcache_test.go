package od

import (
	"fmt"
	"reflect"
	"testing"
)

// cachedBackends builds the two single-node backends over copies of
// ods and returns each with its similar-value cache.
func cachedBackends(t *testing.T, ods []*OD, theta float64) map[string]struct {
	store MutableStore
	cache *simCache
} {
	t.Helper()
	mem, disk := NewMemStore(), NewDiskStore(t.TempDir())
	for _, s := range []Store{mem, disk} {
		for _, o := range ods {
			cp := *o
			s.Add(&cp)
		}
		s.Finalize(theta)
	}
	t.Cleanup(func() { disk.Close() })
	return map[string]struct {
		store MutableStore
		cache *simCache
	}{
		"mem":  {mem, mem.sim},
		"disk": {disk, disk.simCache},
	}
}

// A daemon answers typo queries that never repeat; the similar-value
// cache must stay at its capacity however many it has served, and
// eviction must not change an answer.
func TestSimCacheStaysBounded(t *testing.T) {
	ods := cdODs(60, 9)
	ref := NewMemStore()
	for _, o := range ods {
		cp := *o
		ref.Add(&cp)
	}
	ref.Finalize(0.15)
	var probes []Tuple
	for _, o := range ods[:20] {
		probes = append(probes, o.Tuples[1], o.Tuples[2]) // artist, disc title
	}
	for name, b := range cachedBackends(t, ods, 0.15) {
		// The smallest capacity the sharded LRU offers, so that ten times
		// it stays a quick test.
		b.cache.lru = newShardedLRU[epochKey, []ValueMatch](1, hashEpochKey)
		capacity := b.cache.lru.stats().Capacity
		for i := 0; i < 10*capacity; i++ {
			base := probes[i%len(probes)]
			b.store.SimilarValues(Tuple{Type: base.Type, Value: fmt.Sprintf("%s%d", base.Value, i)})
		}
		st := b.cache.lru.stats()
		if st.Entries > capacity || st.Evictions == 0 {
			t.Errorf("%s: %d entries at capacity %d after %d distinct queries (%d evictions)",
				name, st.Entries, capacity, 10*capacity, st.Evictions)
		}
		for _, p := range probes {
			if got, want := b.store.SimilarValues(p), ref.SimilarValues(p); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: SimilarValues(%v) = %v after the flood, want %v", name, p, got, want)
			}
		}
	}
}

// A mutation batch stales the cached answers of the types it touches and
// of no other: a GENRE-only batch must leave ARTIST entries hit.
func TestSimCacheInvalidatesTouchedTypesOnly(t *testing.T) {
	ods := cdODs(40, 9)
	artist, genre := ods[0].Tuples[1], ods[0].Tuples[3]
	if artist.Type != "ARTIST" || genre.Type != "GENRE" {
		t.Fatalf("fixture changed: %v %v", artist, genre)
	}
	for name, b := range cachedBackends(t, ods, 0.15) {
		b.store.SimilarValues(artist)
		before := b.store.SimilarValues(genre)
		holders := func(ms []ValueMatch) int {
			for _, m := range ms {
				if m.Value == genre.Value {
					return len(m.Objects)
				}
			}
			return 0
		}
		step := func(what string, mutate func() error, wantHolders int) {
			t.Helper()
			if err := mutate(); err != nil {
				t.Fatalf("%s: %s: %v", name, what, err)
			}
			st := b.cache.lru.stats()
			b.store.SimilarValues(artist)
			if after := b.cache.lru.stats(); after.Hits != st.Hits+1 || after.Misses != st.Misses {
				t.Errorf("%s: ARTIST query after %s: hits %d→%d, misses %d→%d; want one more hit",
					name, what, st.Hits, after.Hits, st.Misses, after.Misses)
			}
			st = b.cache.lru.stats()
			got := b.store.SimilarValues(genre)
			if after := b.cache.lru.stats(); after.Misses != st.Misses+1 {
				t.Errorf("%s: GENRE query after %s was not a miss (misses %d→%d)", name, what, st.Misses, after.Misses)
			}
			if holders(got) != wantHolders {
				t.Errorf("%s: %d objects hold %q after %s, want %d", name, holders(got), genre.Value, what, wantHolders)
			}
		}
		added := b.store.IDSpan()
		step("a GENRE-only add", func() error {
			return b.store.AddAfterFinalize([]*OD{{Object: "/freedb/disc[new]", Tuples: []Tuple{genre}}})
		}, holders(before)+1)
		step("its removal", func() error { return b.store.Remove([]int32{added}) }, holders(before))
	}
}

// Partition routing hashes the occurrence key piecewise; a persisted
// federation only reopens if that equals seeded FNV-1a over the key.
func TestPiecewiseOccHashMatchesKeyHash(t *testing.T) {
	for _, tv := range [][2]string{{"", ""}, {"GENRE", "rock"}, {"T", ""}, {"", "v"}, {"TITLE", "Das Mädchen\x00Rosemarie"}} {
		for _, seed := range []uint32{0, 1, 0xdeadbeef} {
			if got, want := fnv1aOcc(tv[0], tv[1], seed), fnv1aAdd(uint32(2166136261)^seed, occKeyOf(tv[0], tv[1])); got != want {
				t.Errorf("fnv1aOcc(%q, %q, %d) = %d, FNV-1a of the key = %d", tv[0], tv[1], seed, got, want)
			}
		}
	}
}
