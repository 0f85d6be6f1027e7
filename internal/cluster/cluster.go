// Package cluster implements Step 6 of the duplicate-detection pipeline:
// computing the transitive closure of the "is-duplicate-of" relation with
// a union-find structure, and rendering the resulting duplicate clusters
// in the dupcluster XML format of Fig. 3.
package cluster

import (
	"fmt"
	"io"
	"sort"
)

// UnionFind is a classic disjoint-set forest with path compression and
// union by rank.
type UnionFind struct {
	parent []int32
	rank   []uint8
}

// NewUnionFind creates n singleton sets, ids 0..n-1.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{
		parent: make([]int32, n),
		rank:   make([]uint8, n),
	}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

// Find returns the representative of x's set.
func (u *UnionFind) Find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b; it reports whether a merge happened.
func (u *UnionFind) Union(a, b int32) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return true
}

// Clusters returns all sets with at least minSize members, each sorted
// ascending, ordered by their smallest member.
func (u *UnionFind) Clusters(minSize int) [][]int32 {
	groups := map[int32][]int32{}
	for i := range u.parent {
		r := u.Find(int32(i))
		groups[r] = append(groups[r], int32(i))
	}
	var out [][]int32
	for _, members := range groups {
		if len(members) < minSize {
			continue
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// FromPairs builds the transitive closure of the given duplicate pairs
// over n objects and returns the clusters with two or more members.
func FromPairs(n int, pairs [][2]int32) [][]int32 {
	return FromPairsFunc(n, len(pairs), func(i int) (int32, int32) {
		return pairs[i][0], pairs[i][1]
	})
}

// FromPairsFunc is FromPairs over count pairs produced by at(i), sparing
// callers that already hold pairs in another shape the intermediate copy.
// n may exceed the number of live objects: the incremental pipeline
// passes the full candidate ID span, so removed IDs participate as
// permanent singletons — they can never appear in a pair, and clusters
// keep only sets of two or more, so they never surface in the output.
func FromPairsFunc(n, count int, at func(i int) (int32, int32)) [][]int32 {
	uf := NewUnionFind(n)
	for i := 0; i < count; i++ {
		uf.Union(at(i))
	}
	return uf.Clusters(2)
}

// WriteXML renders clusters in the Fig. 3 format: one dupcluster element
// per cluster, identified by a unique oid, with the member objects listed
// by their XPaths.
//
//	<dupresult>
//	  <dupcluster oid="1">
//	    <duplicate xpath="/moviedoc/movie[1]"/>
//	    <duplicate xpath="/moviedoc/movie[2]"/>
//	  </dupcluster>
//	</dupresult>
func WriteXML(w io.Writer, clusters [][]int32, xpathOf func(int32) string) error {
	if _, err := io.WriteString(w, "<dupresult>\n"); err != nil {
		return err
	}
	for i, members := range clusters {
		if _, err := fmt.Fprintf(w, "  <dupcluster oid=\"%d\">\n", i+1); err != nil {
			return err
		}
		for _, m := range members {
			if _, err := fmt.Fprintf(w, "    <duplicate xpath=%q/>\n", xpathOf(m)); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "  </dupcluster>\n"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "</dupresult>\n")
	return err
}
