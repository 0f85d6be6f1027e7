package workgen

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/datagen"
	"repro/internal/dirty"
	"repro/internal/xmltree"
)

// Class is the kind of one read request.
type Class int

// Request classes of the serve mix.
const (
	// SimilarHit queries a value drawn uniformly from the corpus
	// vocabulary: it repeats, so the daemon's caches are warm, and its
	// answer must contain the value itself at distance 0.
	SimilarHit Class = iota
	// SimilarTypo queries a vocabulary value with 1–3 random edits. It
	// is never in the vocabulary and never repeats within a run, so it
	// always misses the caches; some lie beyond the neighbor-index
	// budget and take the scan fallback.
	SimilarTypo
	// Duplicates asks for one live candidate's pairs and cluster.
	Duplicates
)

func (c Class) String() string {
	switch c {
	case SimilarHit:
		return "similar_hit"
	case SimilarTypo:
		return "similar_typo"
	default:
		return "duplicates"
	}
}

// Request is one read request of a client's stream.
type Request struct {
	Class Class
	Type  string // similar_*: real-world type queried
	Value string // similar_*: value queried
	Base  string // similar_typo: the vocabulary value Value was derived from
	ID    int32  // duplicates: candidate asked about
}

// Schedule derives the request streams of a run's clients: 50 %
// similar_hit, 25 % similar_typo, 25 % duplicates (see classBlock). Each
// client's stream depends only on (seed, client index), not on how fast
// any client consumes it.
type Schedule struct {
	c       *Corpus
	seed    int64
	clients int

	mu   sync.Mutex
	rng  *rand.Rand      // typo pool generator
	pool []Request       // unique typo requests, in generation order
	seen map[string]bool // type\x00value of every pooled typo
}

// NewSchedule prepares the streams of `clients` closed-loop readers.
func NewSchedule(c *Corpus, seed int64, clients int) *Schedule {
	if clients < 1 {
		clients = 1
	}
	return &Schedule{
		c: c, seed: seed, clients: clients,
		rng:  rand.New(rand.NewSource(seed*1000003 + 17)),
		seen: map[string]bool{},
	}
}

// Stream is one client's request sequence.
type Stream struct {
	s      *Schedule
	client int
	rng    *rand.Rand
	typos  int     // typo requests drawn so far
	deck   []Class // classes left in the current block of four
}

// classBlock is the serve mix as a deck: every four consecutive
// requests of a stream are two hits, one typo and one duplicates query
// in a seeded order. Independent draws give the same shares in the
// long run, but a reader beside a writer completes only a few dozen
// requests per window, and there the luck of the draw (how many
// requests happened to be the kind that waits for the update in
// flight) moved its throughput by a third from seed to seed.
var classBlock = [...]Class{SimilarHit, SimilarHit, SimilarTypo, Duplicates}

// Client returns the stream of client i (0 <= i < clients).
func (s *Schedule) Client(i int) *Stream {
	return &Stream{s: s, client: i, rng: rand.New(rand.NewSource(s.seed*7919 + int64(i)*104729 + 3))}
}

// Next returns the stream's next request.
func (st *Stream) Next() Request {
	c := st.s.c
	if len(st.deck) == 0 {
		st.deck = append(st.deck, classBlock[:]...)
		st.rng.Shuffle(len(st.deck), func(i, j int) { st.deck[i], st.deck[j] = st.deck[j], st.deck[i] })
	}
	class := st.deck[len(st.deck)-1]
	st.deck = st.deck[:len(st.deck)-1]
	switch class {
	case SimilarHit:
		typ := c.QueryTypes[st.rng.Intn(len(c.QueryTypes))]
		vals := c.Vocab[typ]
		return Request{Class: SimilarHit, Type: typ, Value: vals[st.rng.Intn(len(vals))]}
	case SimilarTypo:
		// Client i owns pool entries i, i+clients, i+2*clients, …: the
		// pool is one deterministic sequence of unique values, so no
		// value is queried twice in a run, whoever asks first.
		idx := st.client + st.typos*st.s.clients
		st.typos++
		return st.s.typo(idx)
	default:
		return Request{Class: Duplicates, ID: int32(st.rng.Intn(c.Candidates()))}
	}
}

// typo returns pool entry idx, extending the pool as needed.
func (s *Schedule) typo(idx int) Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pool) <= idx {
		typ := s.c.QueryTypes[s.rng.Intn(len(s.c.QueryTypes))]
		vals := s.c.Vocab[typ]
		base := vals[s.rng.Intn(len(vals))]
		v := mutate(s.rng, base)
		key := typ + "\x00" + v
		if v == "" || s.seen[key] || inSorted(vals, v) {
			continue
		}
		s.seen[key] = true
		s.pool = append(s.pool, Request{Class: SimilarTypo, Type: typ, Value: v, Base: base})
	}
	return s.pool[idx]
}

const typoLetters = "abcdefghijklmnopqrstuvwxyz"

// mutate applies 1–3 random character edits to s and trims the
// result, so the value survives URL transport and XML text trimming
// unchanged.
func mutate(rng *rand.Rand, s string) string {
	r := []rune(s)
	for e, edits := 0, 1+rng.Intn(3); e < edits; e++ {
		if len(r) == 0 {
			r = append(r, rune(typoLetters[rng.Intn(len(typoLetters))]))
			continue
		}
		pos := rng.Intn(len(r))
		letter := rune(typoLetters[rng.Intn(len(typoLetters))])
		switch rng.Intn(3) {
		case 0:
			r[pos] = letter
		case 1:
			r = append(r[:pos], append([]rune{letter}, r[pos:]...)...)
		default:
			if len(r) > 1 {
				r = append(r[:pos], r[pos+1:]...)
			}
		}
	}
	return strings.TrimSpace(string(r))
}

func inSorted(vals []string, v string) bool {
	lo, hi := 0, len(vals)
	for lo < hi {
		mid := (lo + hi) / 2
		if vals[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(vals) && vals[lo] == v
}

// Submission is one single-object document a writer POSTs.
type Submission struct {
	Index int    // position in the stream, from 0
	Name  string // source name of the document
	XML   []byte
	// Key identifies the submitted object among all objects ever
	// present: its DISCID on the cd corpus, its title on the movie
	// corpus. Keys are unique across corpus and stream.
	Key string
	// DuplicateOf is the corpus candidate this object is a dirty
	// duplicate of, or -1 for a fresh object.
	DuplicateOf int32
	// Remove holds the removal spec of the object added RemoveLag
	// submissions earlier (every RemoveEvery-th submission), and
	// RemovedIndex that submission's index; nil and -1 otherwise.
	Remove       []string
	RemovedIndex int
}

// Shape of the submission stream.
const (
	DuplicateEvery = 5 // every 5th submission duplicates a live corpus object
	RemoveEvery    = 4 // every 4th submission also removes …
	RemoveLag      = 8 // … the object added 8 submissions earlier
)

// submissionDraws is the number of candidate objects a submission is
// chosen from.
const submissionDraws = 7

// Submissions is the writer's stream: one single-object document per
// submission; every 5th a dirty duplicate of a live corpus object;
// every 4th also removing the object added 8 submissions earlier.
//
// What an update costs follows what the added object shares with the
// corpus (Corpus.sharers), and that is heavy-tailed: over the dozen or
// so submissions a write window fits, the median ack of one seed
// differed from another's by a third. Each submission is therefore the
// one of submissionDraws candidate objects whose sharer count is
// closest to the corpus's own median, which keeps the work per
// submission — not its content — steady across the stream and across
// seeds.
type Submissions struct {
	c           *Corpus
	rng         *rand.Rand
	firstSource int
	next        int
	keys        map[string]bool
	path        string
}

// NewSubmissions starts the stream. firstSource is the source index
// the daemon will assign to the first submitted document (the number
// of sources it already holds); removal specs are qualified with it.
func NewSubmissions(c *Corpus, seed int64, firstSource int) *Submissions {
	s := &Submissions{
		c: c, rng: rand.New(rand.NewSource(seed*48271 + 11)),
		firstSource: firstSource, keys: map[string]bool{},
	}
	if c.Params.Kind == KindCD {
		s.path = "/freedb/disc"
		for _, id := range c.IDs {
			s.keys[id] = true
		}
	} else {
		s.path = "/filmdienst/movie"
		for _, v := range c.Vocab["TITLE"] {
			s.keys[v] = true
		}
	}
	return s
}

// Next returns the next submission.
func (s *Submissions) Next() Submission {
	i := s.next
	s.next++
	sub := Submission{Index: i, DuplicateOf: -1, RemovedIndex: -1}
	dup := i%DuplicateEvery == DuplicateEvery-1
	var root *xmltree.Node
	best := -1
	for k := 0; k < submissionDraws; k++ {
		var cand *xmltree.Node
		var key string
		var of int32 = -1
		if s.c.Params.Kind == KindCD {
			cand, key, of = s.disc(dup)
		} else {
			cand, key = s.movie()
		}
		off := s.c.sharers(cand.Children[0]) - s.c.shareTarget
		if off < 0 {
			off = -off
		}
		if best < 0 || off < best {
			best, root, sub.Key, sub.DuplicateOf = off, cand, key, of
		}
	}
	// Only the chosen candidate's key is taken.
	s.keys[sub.Key] = true
	if s.c.Params.Kind == KindCD {
		sub.Name = fmt.Sprintf("submitted-%d.xml", i)
	} else {
		sub.Name = fmt.Sprintf("submitted-filmdienst-%d.xml", i)
	}
	var buf bytes.Buffer
	if err := (&xmltree.Document{Root: root}).WriteXML(&buf); err != nil {
		panic(err) // writing into a bytes.Buffer cannot fail
	}
	sub.XML = buf.Bytes()
	if i%RemoveEvery == RemoveEvery-1 && i >= RemoveLag {
		sub.RemovedIndex = i - RemoveLag
		sub.Remove = []string{fmt.Sprintf("%d:%s", s.firstSource+sub.RemovedIndex, s.path)}
	}
	return sub
}

// disc builds a one-disc document: a fresh disc, or a dirtied copy of
// a live corpus disc whose disc-id differs from the original's in one
// digit (the paper's observation about real FreeDB ids). Either way
// the disc-id is unique among every disc the daemon has ever held, so
// it identifies the submission.
func (s *Submissions) disc(dup bool) (root *xmltree.Node, key string, of int32) {
	root = xmltree.NewNode("freedb")
	of = -1
	var disc *xmltree.Node
	if dup {
		of = int32(s.rng.Intn(s.c.Candidates()))
		src := s.c.cdDoc.Root.ChildrenNamed("disc")[of]
		holder := xmltree.NewNode("freedb")
		holder.AppendChild(src.Clone())
		gen, err := dirty.New(dirty.Params{
			DuplicatePct: 1, TypoPct: typoPct, MissingPct: missingPct, SynonymPct: synonymPct,
		}, s.rng.Int63(), datagen.FreeDBSynonyms())
		if err == nil {
			_, err = gen.DirtyDocument(&xmltree.Document{Root: holder}, "/freedb/disc")
		}
		if err != nil {
			panic(err) // fixed in-range parameters and a present candidate path
		}
		disc = holder.ChildrenNamed("disc")[1]
		holder.RemoveChild(disc)
	} else {
		cd := datagen.FreeDB(1, s.rng.Int63())[0]
		disc = datagen.FreeDBToXML([]datagen.CD{cd}).Root.ChildrenNamed("disc")[0]
		disc.Parent.RemoveChild(disc)
	}
	clampArtists(disc) // like the corpus itself, see maxIndexedRunes
	did := disc.Child("did")
	for try := 0; ; try++ {
		if dup && try < 32 {
			key = mutateHexDigit(s.rng, s.c.IDs[of])
		} else {
			key = fmt.Sprintf("%08x", s.rng.Uint32())
		}
		if !s.keys[key] {
			break
		}
	}
	did.Text = key
	root.AppendChild(disc)
	return root, key, of
}

// mutateHexDigit replaces one character of id by a different hex digit.
func mutateHexDigit(rng *rand.Rand, id string) string {
	const hex = "0123456789abcdef"
	b := []byte(id)
	if len(b) == 0 {
		return string(hex[rng.Intn(16)])
	}
	pos := rng.Intn(len(b))
	for {
		if d := hex[rng.Intn(16)]; d != b[pos] {
			b[pos] = d
			return string(b)
		}
	}
}

// movie builds a one-movie FilmDienst document with a title no other
// object carries.
func (s *Submissions) movie() (root *xmltree.Node, key string) {
	for {
		m := datagen.Movies(1, s.rng.Int63())
		doc := datagen.FilmDienstToXML(m)
		mv := doc.Root.ChildrenNamed("movie")[0]
		key = strings.TrimSpace(mv.Child("movie-title").Child("title").Text)
		clash := s.keys[key]
		if aka := mv.Child("aka-title"); aka != nil {
			clash = clash || s.keys[strings.TrimSpace(aka.Child("title").Text)]
		}
		if key == "" || clash {
			continue
		}
		return doc.Root, key
	}
}
