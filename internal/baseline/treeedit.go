package baseline

import (
	"repro/internal/od"
	"repro/internal/xmltree"
)

// TreeEdit classifies candidate pairs by normalized tree edit distance
// over the candidate elements themselves (Zhang-Shasha, unit costs) — the
// approximate-XML-join approach of Guha et al. [6] that the paper's
// Sec. 5 outlook contrasts with the OD-based measure. It needs the
// original nodes (od.OD.Node), so it only applies to stores produced by
// the core pipeline from materialized sources (DocSource): streaming
// ingestion discards each subtree after flattening and leaves Node nil,
// which this baseline cannot score — Detect skips such objects, so a
// fully streamed store yields no pairs. Run baselines on DocSource
// stores.
type TreeEdit struct {
	// Theta is the normalized distance threshold; pairs strictly below
	// classify as duplicates. Default 0.2.
	Theta float64
}

// Name implements PairDetector.
func (te TreeEdit) Name() string { return "tree-edit-distance" }

// Detect implements PairDetector. Pairs are restricted to store
// neighbors (objects sharing at least one similar tuple value), keeping
// the O(n²) tree-edit computations to plausible candidates, then verified
// with the full Zhang-Shasha distance.
func (te TreeEdit) Detect(store od.Store) [][2]int32 {
	theta := te.Theta
	if theta == 0 {
		theta = 0.2
	}
	var out [][2]int32
	ods := store.ODs()
	for i := int32(0); i < int32(store.Size()); i++ {
		a := ods[i]
		if a.Node == nil {
			continue
		}
		for _, j := range store.Neighbors(i) {
			if j <= i {
				continue
			}
			b := ods[j]
			if b.Node == nil {
				continue
			}
			if treeNormalized(a.Node, b.Node) < theta {
				out = append(out, [2]int32{i, j})
			}
		}
	}
	sortPairs(out)
	return out
}

// treeDistance returns the Zhang-Shasha edit distance between the
// ordered trees rooted at a and b. Costs are unit: deleting a node 1,
// inserting a node 1, relabeling 1 when either the element name or the
// text differs (0 otherwise).
func treeDistance(a, b *xmltree.Node) int {
	ta, tb := indexTree(a), indexTree(b)
	n, m := len(ta.labels)-1, len(tb.labels)-1 // labels are 1-based
	if n == 0 {
		return m
	}
	if m == 0 {
		return n
	}
	td := make([][]int, n+1)
	for i := range td {
		td[i] = make([]int, m+1)
	}
	for _, i := range ta.keyroots {
		for _, j := range tb.keyroots {
			forestDist(ta, tb, i, j, td)
		}
	}
	return td[n][m]
}

// treeNormalized returns treeDistance divided by the sum of both tree sizes —
// the maximum possible edit script (delete everything, insert everything)
// — yielding a value in [0,1].
func treeNormalized(a, b *xmltree.Node) float64 {
	sa, sb := a.CountNodes(), b.CountNodes()
	if sa+sb == 0 {
		return 0
	}
	return float64(treeDistance(a, b)) / float64(sa+sb)
}

type label struct {
	name, text string
}

// indexedTree holds a tree in postorder form for the Zhang-Shasha DP:
// labels[i] is the i-th node in postorder (1-based), lld[i] the postorder
// index of its leftmost leaf descendant, keyroots the ascending list of
// keyroot indexes.
type indexedTree struct {
	labels   []label // 1-based: labels[0] unused
	lld      []int
	keyroots []int
}

func indexTree(root *xmltree.Node) *indexedTree {
	t := &indexedTree{labels: []label{{}}, lld: []int{0}}
	var postorder func(n *xmltree.Node) int // returns leftmost leaf index
	counter := 0
	postorder = func(n *xmltree.Node) int {
		lml := 0
		for i, c := range n.Children {
			childLml := postorder(c)
			if i == 0 {
				lml = childLml
			}
		}
		counter++
		if len(n.Children) == 0 {
			lml = counter
		}
		t.labels = append(t.labels, label{name: n.Name, text: n.Text})
		t.lld = append(t.lld, lml)
		return lml
	}
	postorder(root)

	// keyroots: i is a keyroot iff no j > i has the same leftmost leaf.
	seen := map[int]bool{}
	for i := len(t.labels) - 1; i >= 1; i-- {
		if !seen[t.lld[i]] {
			seen[t.lld[i]] = true
			t.keyroots = append(t.keyroots, i)
		}
	}
	// ascending order
	for i, j := 0, len(t.keyroots)-1; i < j; i, j = i+1, j-1 {
		t.keyroots[i], t.keyroots[j] = t.keyroots[j], t.keyroots[i]
	}
	return t
}

func relabelCost(a, b label) int {
	if a == b {
		return 0
	}
	return 1
}

func forestDist(ta, tb *indexedTree, i, j int, td [][]int) {
	li, lj := ta.lld[i], tb.lld[j]
	m := i - li + 2
	n := j - lj + 2
	fd := make([][]int, m)
	for x := range fd {
		fd[x] = make([]int, n)
	}
	ioff := li - 1
	joff := lj - 1
	for x := 1; x < m; x++ {
		fd[x][0] = fd[x-1][0] + 1 // delete
	}
	for y := 1; y < n; y++ {
		fd[0][y] = fd[0][y-1] + 1 // insert
	}
	for x := 1; x < m; x++ {
		for y := 1; y < n; y++ {
			if ta.lld[x+ioff] == li && tb.lld[y+joff] == lj {
				cost := relabelCost(ta.labels[x+ioff], tb.labels[y+joff])
				fd[x][y] = min3(
					fd[x-1][y]+1,
					fd[x][y-1]+1,
					fd[x-1][y-1]+cost,
				)
				td[x+ioff][y+joff] = fd[x][y]
			} else {
				fd[x][y] = min3(
					fd[x-1][y]+1,
					fd[x][y-1]+1,
					fd[ta.lld[x+ioff]-1-ioff][tb.lld[y+joff]-1-joff]+td[x+ioff][y+joff],
				)
			}
		}
	}
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
