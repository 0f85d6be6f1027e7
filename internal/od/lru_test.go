package od

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// Second-chance eviction: with a shard at capacity, the entry that was
// hit since the hand last passed it survives the next insert's sweep
// (it only loses its reference bit), the first untouched one is what
// the insert replaces — and a later sweep then takes the survivor.
func TestLRUSecondChance(t *testing.T) {
	c := &lruShard[int, string]{cap: 3, m: map[int]*lruEntry[int, string]{}}
	for k := 0; k < 3; k++ {
		c.put(k, "v")
	}
	if _, ok := c.get(0); !ok {
		t.Fatal("entry 0 missing before any eviction")
	}
	c.put(3, "v") // sweep: 0 was hit → spared; 1 was not → replaced
	for k, want := range map[int]bool{0: true, 1: false, 2: true, 3: true} {
		if _, ok := c.m[k]; ok != want {
			t.Errorf("after one sweep: entry %d present = %v, want %v", k, ok, want)
		}
	}
	c.put(4, "v") // 2 is next under the hand and was never hit
	c.put(5, "v") // the hand wraps to 0, whose bit the first sweep cleared
	for k, want := range map[int]bool{0: false, 2: false, 3: true, 4: true, 5: true} {
		if _, ok := c.m[k]; ok != want {
			t.Errorf("after three sweeps: entry %d present = %v, want %v", k, ok, want)
		}
	}
	if len(c.m) != 3 || c.evictions != 3 || c.hits != 1 {
		t.Errorf("%d entries, %d evictions, %d hits; want 3, 3, 1", len(c.m), c.evictions, c.hits)
	}
}

// BenchmarkShardedLRUGet is the cache hit every matched tuple pair of
// Step 5 pays twice, from all workers at once.
func BenchmarkShardedLRUGet(b *testing.B) {
	c := newShardedLRU[valueKey, []int32](diskOccCacheSize, hashValueKey)
	keys := make([]valueKey, 4096)
	for i := range keys {
		keys[i] = valueKey{"TRACK", fmt.Sprintf("the title of track %d", i)}
		c.put(keys[i], []int32{int32(i)})
	}
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		var next atomic.Uint32
		b.RunParallel(func(pb *testing.PB) {
			i := int(next.Add(1)) * 977
			for pb.Next() {
				if _, ok := c.get(keys[i%len(keys)]); !ok {
					b.Error("miss on a resident key")
				}
				i++
			}
		})
	})
}
