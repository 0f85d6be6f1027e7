package workgen

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

var testParams = []Params{
	{Kind: KindCD, Objects: 60, DupShare: 1.0},
	{Kind: KindCD, Objects: 80, DupShare: 0.1},
	{Kind: KindMovies, Objects: 40},
}

func mustGenerate(t *testing.T, p Params, seed int64) *Corpus {
	t.Helper()
	c, err := Generate(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// digest renders everything a corpus hands the programs, so two
// corpora can be compared byte for byte.
func digest(c *Corpus) string {
	var b strings.Builder
	b.Write(c.Mapping)
	for _, f := range c.Files {
		fmt.Fprintf(&b, "== %s\n%s", f.Name, f.Data)
	}
	fmt.Fprint(&b, c.Gold, c.Paths, c.Sources, c.IDs)
	for _, typ := range c.QueryTypes {
		fmt.Fprint(&b, typ, c.Vocab[typ])
	}
	return b.String()
}

func requests(c *Corpus, seed int64, clients, client, n int) []Request {
	st := NewSchedule(c, seed, clients).Client(client)
	out := make([]Request, n)
	for i := range out {
		out[i] = st.Next()
	}
	return out
}

func submissions(c *Corpus, seed int64, n int) []Submission {
	s := NewSubmissions(c, seed, len(c.Files))
	out := make([]Submission, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// The same seed yields byte-identical inputs; another seed changes
// every one of them.
func TestSeedDeterminesEverything(t *testing.T) {
	for _, p := range testParams {
		t.Run(fmt.Sprintf("%s-%d-%v", p.Kind, p.Objects, p.DupShare), func(t *testing.T) {
			a, b, other := mustGenerate(t, p, 11), mustGenerate(t, p, 11), mustGenerate(t, p, 12)
			if digest(a) != digest(b) {
				t.Error("same seed, different corpus")
			}
			if digest(a) == digest(other) {
				t.Error("different seed, same corpus")
			}
			if bytes.Equal(a.Files[0].Data, other.Files[0].Data) {
				t.Error("different seed, same XML")
			}

			ra, rb, ro := requests(a, 11, 2, 1, 400), requests(b, 11, 2, 1, 400), requests(a, 12, 2, 1, 400)
			if fmt.Sprint(ra) != fmt.Sprint(rb) {
				t.Error("same seed, different request schedule")
			}
			if fmt.Sprint(ra) == fmt.Sprint(ro) {
				t.Error("different seed, same request schedule")
			}
			if fmt.Sprint(ra) == fmt.Sprint(requests(a, 11, 2, 0, 400)) {
				t.Error("two clients share one schedule")
			}

			sa, sb, so := submissions(a, 11, 30), submissions(b, 11, 30), submissions(a, 12, 30)
			if fmt.Sprint(sa) != fmt.Sprint(sb) {
				t.Error("same seed, different submission stream")
			}
			if fmt.Sprint(sa) == fmt.Sprint(so) {
				t.Error("different seed, same submission stream")
			}

			if ua, ub := a.UpdateBatch(0), b.UpdateBatch(0); fmt.Sprint(ua) != fmt.Sprint(ub) {
				t.Error("same seed, different update batch")
			}
			if fmt.Sprint(a.UpdateBatch(0)) == fmt.Sprint(other.UpdateBatch(0)) {
				t.Error("different seed, same update batch")
			}
		})
	}
}

// A client's stream must not depend on how far another client has got:
// typo values come from one shared sequence, but each client owns its
// own positions in it.
func TestStreamsIndependentOfInterleaving(t *testing.T) {
	c := mustGenerate(t, testParams[1], 5)
	alone := requests(c, 5, 2, 1, 300)

	sched := NewSchedule(c, 5, 2)
	s0, s1 := sched.Client(0), sched.Client(1)
	var interleaved []Request
	for i := 0; i < 300; i++ {
		for k := 0; k < 3; k++ {
			s0.Next() // client 0 runs three times as fast
		}
		interleaved = append(interleaved, s1.Next())
	}
	if fmt.Sprint(alone) != fmt.Sprint(interleaved) {
		t.Error("client 1's stream changed with client 0's pace")
	}
}

// similar_hit values are always in the vocabulary; similar_typo values
// never are and never repeat, across all clients of a run; duplicates
// ask about existing candidates; the mix is 50/25/25.
func TestRequestClasses(t *testing.T) {
	for _, p := range testParams {
		c := mustGenerate(t, p, 3)
		vocab := map[string]map[string]bool{}
		for typ, vals := range c.Vocab {
			vocab[typ] = map[string]bool{}
			for _, v := range vals {
				vocab[typ][v] = true
			}
		}
		sched := NewSchedule(c, 3, 2)
		seenTypo := map[string]bool{}
		counts := map[Class]int{}
		const n = 3000
		for client := 0; client < 2; client++ {
			st := sched.Client(client)
			for i := 0; i < n; i++ {
				r := st.Next()
				counts[r.Class]++
				switch r.Class {
				case SimilarHit:
					if !vocab[r.Type][r.Value] {
						t.Fatalf("%s: similar_hit %s=%q is not in the vocabulary", p.Kind, r.Type, r.Value)
					}
				case SimilarTypo:
					key := r.Type + "\x00" + r.Value
					if vocab[r.Type][r.Value] {
						t.Fatalf("%s: similar_typo %s=%q is in the vocabulary", p.Kind, r.Type, r.Value)
					}
					if seenTypo[key] {
						t.Fatalf("%s: similar_typo %s=%q repeats", p.Kind, r.Type, r.Value)
					}
					seenTypo[key] = true
					if !vocab[r.Type][r.Base] {
						t.Fatalf("%s: typo base %q is not in the vocabulary", p.Kind, r.Base)
					}
					if r.Value == "" || r.Value != strings.TrimSpace(r.Value) {
						t.Fatalf("%s: similar_typo value %q would not survive trimming", p.Kind, r.Value)
					}
				case Duplicates:
					if r.ID < 0 || int(r.ID) >= c.Candidates() {
						t.Fatalf("%s: duplicates id %d outside [0,%d)", p.Kind, r.ID, c.Candidates())
					}
				}
			}
		}
		total := float64(2 * n)
		for class, want := range map[Class]float64{SimilarHit: 0.5, SimilarTypo: 0.25, Duplicates: 0.25} {
			if got := float64(counts[class]) / total; got != want {
				t.Errorf("%s: share of %v = %.3f, want about %.2f", p.Kind, class, got, want)
			}
		}
	}
}

// The vocabulary and the identifying values are what a parser sees in
// the generated XML, and the paths and gold pairs line up with it.
func TestCorpusGroundTruth(t *testing.T) {
	for _, p := range testParams {
		c := mustGenerate(t, p, 9)
		parsed := map[string]bool{}
		candidates := 0
		for si, f := range c.Files {
			doc, err := xmltree.Parse(bytes.NewReader(f.Data))
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			doc.Root.Walk(func(n *xmltree.Node) bool {
				if n.Text != "" {
					parsed[n.Text] = true
				}
				return true
			})
			for _, obj := range doc.Root.Children {
				if got := c.Paths[candidates]; got != obj.Path() {
					t.Fatalf("%s: candidate %d path %s, document says %s", p.Kind, candidates, got, obj.Path())
				}
				if c.Sources[candidates] != si {
					t.Fatalf("%s: candidate %d source %d, want %d", p.Kind, candidates, c.Sources[candidates], si)
				}
				candidates++
			}
		}
		if candidates != c.Candidates() {
			t.Errorf("%s: %d candidates, documents hold %d", p.Kind, c.Candidates(), candidates)
		}
		for typ, vals := range c.Vocab {
			if len(vals) == 0 {
				t.Errorf("%s: empty vocabulary for %s", p.Kind, typ)
			}
			for _, v := range vals {
				if !parsed[v] {
					t.Fatalf("%s: vocabulary value %q of %s is not a text value of the XML", p.Kind, v, typ)
				}
			}
		}
		wantGold := p.Objects // every movie once per source
		if p.Kind == KindCD {
			wantGold = int(float64(p.Objects)*p.DupShare + 0.5)
		}
		if len(c.Gold) != wantGold {
			t.Errorf("%s: %d gold pairs, want %d", p.Kind, len(c.Gold), wantGold)
		}
		for _, g := range c.Gold {
			if g[0] >= g[1] || int(g[1]) >= c.Candidates() {
				t.Fatalf("%s: bad gold pair %v", p.Kind, g)
			}
		}
		if !bytes.Contains(c.Mapping, []byte(c.Type+" /")) {
			t.Errorf("%s: mapping file lacks the candidate type %s:\n%s", p.Kind, c.Type, c.Mapping)
		}
	}
}

// One object per submission with a key nothing else carries; every
// 5th duplicates a corpus disc; every 4th removes the object added 8
// submissions earlier, addressed by the source index it was given.
func TestSubmissionStream(t *testing.T) {
	for _, p := range testParams {
		c := mustGenerate(t, p, 21)
		taken := map[string]bool{}
		for _, id := range c.IDs {
			taken[id] = true
		}
		for _, v := range c.Vocab["TITLE"] {
			taken[v] = true
		}
		const first = 3
		s := NewSubmissions(c, 21, first)
		for i := 0; i < 60; i++ {
			sub := s.Next()
			if sub.Index != i {
				t.Fatalf("submission %d carries index %d", i, sub.Index)
			}
			doc, err := xmltree.Parse(bytes.NewReader(sub.XML))
			if err != nil {
				t.Fatalf("%s: submission %d: %v", p.Kind, i, err)
			}
			if len(doc.Root.Children) != 1 {
				t.Fatalf("%s: submission %d holds %d objects", p.Kind, i, len(doc.Root.Children))
			}
			if !bytes.Contains(sub.XML, []byte(">"+sub.Key+"<")) {
				t.Fatalf("%s: submission %d does not carry its key %q", p.Kind, i, sub.Key)
			}
			if taken[sub.Key] {
				t.Fatalf("%s: submission %d reuses key %q", p.Kind, i, sub.Key)
			}
			taken[sub.Key] = true

			wantDup := p.Kind == KindCD && i%DuplicateEvery == DuplicateEvery-1
			if (sub.DuplicateOf >= 0) != wantDup {
				t.Errorf("%s: submission %d DuplicateOf=%d, want duplicate=%v", p.Kind, i, sub.DuplicateOf, wantDup)
			}
			if wantRemove := i%RemoveEvery == RemoveEvery-1 && i >= RemoveLag; wantRemove {
				want := fmt.Sprintf("%d:%s", first+i-RemoveLag, doc.Root.Children[0].Path())
				if len(sub.Remove) != 1 || sub.Remove[0] != want || sub.RemovedIndex != i-RemoveLag {
					t.Errorf("%s: submission %d removes %v (index %d), want [%s]", p.Kind, i, sub.Remove, sub.RemovedIndex, want)
				}
			} else if len(sub.Remove) != 0 || sub.RemovedIndex != -1 {
				t.Errorf("%s: submission %d removes %v unexpectedly", p.Kind, i, sub.Remove)
			}
		}
	}
}

// Update batches add UpdateObjects fresh objects and remove two
// original ones, never the same one in two reps, and the gold pairs
// shrink accordingly.
func TestUpdateBatch(t *testing.T) {
	for _, p := range testParams {
		c := mustGenerate(t, p, 4)
		removed := map[int32]bool{}
		for rep := 0; rep < 3; rep++ {
			b := c.UpdateBatch(rep)
			doc, err := xmltree.Parse(bytes.NewReader(b.Doc.Data))
			if err != nil {
				t.Fatal(err)
			}
			if len(doc.Root.Children) != UpdateObjects || b.Added != UpdateObjects {
				t.Errorf("%s: batch adds %d objects (Added=%d), want %d", p.Kind, len(doc.Root.Children), b.Added, UpdateObjects)
			}
			if len(b.Remove) != 2 || len(b.RemovedIDs) != 2 {
				t.Fatalf("%s: batch removes %v", p.Kind, b.Remove)
			}
			for k, id := range b.RemovedIDs {
				if removed[id] {
					t.Errorf("%s: rep %d removes object %d again", p.Kind, rep, id)
				}
				removed[id] = true
				if want := fmt.Sprintf("%d:%s", c.Sources[id], c.Paths[id]); b.Remove[k] != want {
					t.Errorf("%s: removal spec %q, want %q", p.Kind, b.Remove[k], want)
				}
			}
		}
		var ids []int32
		for id := range removed {
			ids = append(ids, id)
		}
		for _, g := range c.GoldWithout(ids) {
			if removed[g[0]] || removed[g[1]] {
				t.Errorf("%s: gold pair %v survived the removal", p.Kind, g)
			}
		}
		if len(c.GoldWithout(nil)) != len(c.Gold) {
			t.Error("GoldWithout(nil) dropped pairs")
		}
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	if _, err := Generate(Params{Kind: "lp", Objects: 5}, 1); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Generate(Params{Kind: KindCD}, 1); err == nil {
		t.Error("zero objects accepted")
	}
}

// Every seed must measure the same code path: no artist value of a cd
// corpus, of its submissions or of its update batches may leave the
// neighbor-index tier (see maxIndexedRunes).
func TestArtistsStayInIndexTier(t *testing.T) {
	check := func(what string, xml []byte) {
		t.Helper()
		doc, err := xmltree.Parse(bytes.NewReader(xml))
		if err != nil {
			t.Fatal(err)
		}
		doc.Root.Walk(func(n *xmltree.Node) bool {
			if n.Name == "artist" && len([]rune(n.Text)) > maxIndexedRunes {
				t.Errorf("%s holds the artist %q, longer than %d runes", what, n.Text, maxIndexedRunes)
			}
			return true
		})
	}
	for seed := int64(1); seed <= 12; seed++ {
		c := mustGenerate(t, Params{Kind: KindCD, Objects: 300, DupShare: 0.5}, seed)
		check(fmt.Sprintf("corpus of seed %d", seed), c.Files[0].Data)
		for _, sub := range submissions(c, seed, 40) {
			check(fmt.Sprintf("submission %d of seed %d", sub.Index, seed), sub.XML)
		}
		for rep := 0; rep < 3; rep++ {
			check(fmt.Sprintf("update batch %d of seed %d", rep, seed), c.UpdateBatch(rep).Doc.Data)
		}
	}
}

// A submission's update costs what the submitted object shares with
// the corpus; the stream keeps that close to the corpus's own median,
// much closer than independent draws (the corpus objects themselves)
// come to it.
func TestSubmissionsKeepWorkSteady(t *testing.T) {
	meanOff := func(c *Corpus, objects []*xmltree.Node) float64 {
		total := 0.0
		for _, obj := range objects {
			off := c.sharers(obj) - c.shareTarget
			if off < 0 {
				off = -off
			}
			total += float64(off)
		}
		return total / float64(len(objects))
	}
	for _, p := range []Params{{Kind: KindCD, Objects: 400, DupShare: 0.1}, {Kind: KindMovies, Objects: 200}} {
		c := mustGenerate(t, p, 6)
		if c.shareTarget <= 0 {
			t.Fatalf("%s: share target %d", p.Kind, c.shareTarget)
		}
		var corpus, submitted []*xmltree.Node
		for _, f := range c.Files {
			doc, err := xmltree.Parse(bytes.NewReader(f.Data))
			if err != nil {
				t.Fatal(err)
			}
			corpus = append(corpus, doc.Root.Children...)
		}
		for _, sub := range submissions(c, 6, 60) {
			doc, err := xmltree.Parse(bytes.NewReader(sub.XML))
			if err != nil {
				t.Fatal(err)
			}
			submitted = append(submitted, doc.Root.Children[0])
		}
		single, chosen := meanOff(c, corpus), meanOff(c, submitted)
		if chosen > single/2 {
			t.Errorf("%s: submissions stray %.1f sharers from the target %d on average, single draws %.1f — expected well under half",
				p.Kind, chosen, c.shareTarget, single)
		}
	}
}
