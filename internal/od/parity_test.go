package od

import (
	"fmt"
	"strconv"

	"repro/internal/datagen"
)

// Fixtures and comparison helpers the parity suites of this package
// share.

// cdODs flattens generated FreeDB CDs into object descriptions, the same
// shape the pipeline's describe stage produces for Dataset 1.
func cdODs(n int, seed int64) []*OD {
	cds := datagen.FreeDB(n, seed)
	out := make([]*OD, 0, len(cds))
	for i, cd := range cds {
		o := &OD{Object: fmt.Sprintf("/freedb/disc[%d]", i+1)}
		add := func(value, name, typ string) {
			o.Tuples = append(o.Tuples, Tuple{Value: value, Name: name, Type: typ})
		}
		add(cd.DID, "/freedb/disc/did", "DID")
		add(cd.Artist, "/freedb/disc/artist", "ARTIST")
		add(cd.Title, "/freedb/disc/dtitle", "DTITLE")
		add(cd.Genre, "/freedb/disc/genre", "GENRE")
		add(strconv.Itoa(cd.Year), "/freedb/disc/year", "YEAR")
		for _, tr := range cd.Tracks {
			add(tr, "/freedb/disc/tracks/title", "TRACK")
		}
		out = append(out, o)
	}
	return out
}

// movieODs flattens generated Dataset 2 movies likewise.
func movieODs(n int, seed int64) []*OD {
	movies := datagen.Movies(n, seed)
	out := make([]*OD, 0, len(movies))
	for i, m := range movies {
		o := &OD{Object: fmt.Sprintf("/movies/movie[%d]", i+1)}
		add := func(value, name, typ string) {
			o.Tuples = append(o.Tuples, Tuple{Value: value, Name: name, Type: typ})
		}
		add(m.Title, "/movies/movie/title", "TITLE")
		add(m.GermanTitle, "/movies/movie/german", "TITLE")
		add(strconv.Itoa(m.Year), "/movies/movie/year", "YEAR")
		for _, g := range m.Genres {
			add(g, "/movies/movie/genre", "GENRE")
		}
		for _, p := range m.People {
			add(p.First+" "+p.Last, "/movies/movie/person", "PERSON")
		}
		out = append(out, o)
	}
	return out
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalMatches(a, b []ValueMatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Value != b[i].Value || a[i].Dist != b[i].Dist || !equalIDs(a[i].Objects, b[i].Objects) {
			return false
		}
	}
	return true
}
