package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(5)
	if setCount(uf) != 5 || len(uf.parent) != 5 {
		t.Fatalf("initial sets=%d size=%d", setCount(uf), len(uf.parent))
	}
	if !uf.Union(0, 1) {
		t.Error("first union should merge")
	}
	if uf.Union(1, 0) {
		t.Error("repeated union should not merge")
	}
	if uf.Find(0) != uf.Find(1) {
		t.Error("0 and 1 should be together")
	}
	if uf.Find(0) == uf.Find(2) {
		t.Error("0 and 2 should be apart")
	}
	if setCount(uf) != 4 {
		t.Errorf("sets = %d, want 4", setCount(uf))
	}
}

// setCount is the number of disjoint sets in uf.
func setCount(uf *UnionFind) int {
	reps := map[int32]bool{}
	for i := range uf.parent {
		reps[uf.Find(int32(i))] = true
	}
	return len(reps)
}

func TestTransitivity(t *testing.T) {
	// o1 dup o2, o2 dup o3 => o1 dup o3 (Sec. 2.3 Step 6)
	uf := NewUnionFind(4)
	uf.Union(0, 1)
	uf.Union(1, 2)
	if uf.Find(0) != uf.Find(2) {
		t.Error("transitivity violated")
	}
	got := uf.Clusters(2)
	if len(got) != 1 || !reflect.DeepEqual(got[0], []int32{0, 1, 2}) {
		t.Errorf("clusters = %v", got)
	}
}

func TestClustersMinSize(t *testing.T) {
	uf := NewUnionFind(5)
	uf.Union(3, 4)
	all := uf.Clusters(1)
	if len(all) != 4 {
		t.Errorf("clusters(1) = %v", all)
	}
	dups := uf.Clusters(2)
	if len(dups) != 1 || !reflect.DeepEqual(dups[0], []int32{3, 4}) {
		t.Errorf("clusters(2) = %v", dups)
	}
}

func TestFromPairs(t *testing.T) {
	got := FromPairs(6, [][2]int32{{0, 1}, {2, 3}, {3, 4}})
	want := [][]int32{{0, 1}, {2, 3, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FromPairs = %v, want %v", got, want)
	}
	if got := FromPairs(3, nil); len(got) != 0 {
		t.Errorf("no pairs should give no clusters, got %v", got)
	}
}

func TestWriteXMLFig3Format(t *testing.T) {
	clusters := [][]int32{{0, 1}}
	var sb strings.Builder
	err := WriteXML(&sb, clusters, func(i int32) string {
		return fmt.Sprintf("/moviedoc/movie[%d]", i+1)
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"<dupresult>",
		`<dupcluster oid="1">`,
		`<duplicate xpath="/moviedoc/movie[1]"/>`,
		`<duplicate xpath="/moviedoc/movie[2]"/>`,
		"</dupcluster>",
		"</dupresult>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// Property: union-find agrees with a naive reachability closure.
func TestQuickUnionFindClosure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		var pairs [][2]int32
		for i := 0; i < rng.Intn(30); i++ {
			pairs = append(pairs, [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))})
		}
		uf := NewUnionFind(n)
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
			adj[i][i] = true
		}
		for _, p := range pairs {
			uf.Union(p[0], p[1])
			adj[p[0]][p[1]] = true
			adj[p[1]][p[0]] = true
		}
		// Floyd-Warshall closure
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if adj[i][k] && adj[k][j] {
						adj[i][j] = true
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (uf.Find(int32(i)) == uf.Find(int32(j))) != adj[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
