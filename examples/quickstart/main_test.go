package main

import (
	"bytes"
	"regexp"
	"testing"
)

// timings matches the durations the example prints; they vary from run
// to run.
var timings = regexp.MustCompile(`\b(?:\d+(?:\.\d+)?(?:ns|µs|ms|h|m|s))+\b`)

// TestRun runs the example on the paper's running example and checks what it prints,
// timings masked.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if got := timings.ReplaceAllString(out.String(), "T"); got != want {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
}

const want = `candidates: 3
OD of /moviedoc/movie[1]:
  (The Matrix, /moviedoc/movie/title)
  (Keanu Reeves, /moviedoc/movie/actor/name)
  (L. Fishburne, /moviedoc/movie/actor/name)
  (Neo, /moviedoc/movie/actor/role)
  (Morpheus, /moviedoc/movie/actor/role)
OD of /moviedoc/movie[2]:
  (Matrix, /moviedoc/movie/title)
  (Keanu Reeves, /moviedoc/movie/actor/name)
  (The One, /moviedoc/movie/actor/role)
OD of /moviedoc/movie[3]:
  (Signs, /moviedoc/movie/title)
  (Mel Gibson, /moviedoc/movie/actor/name)
  (Graham Hess, /moviedoc/movie/actor/role)

duplicates: /moviedoc/movie[1] <-> /moviedoc/movie[2] (sim 0.67)

<dupresult>
  <dupcluster oid="1">
    <duplicate xpath="/moviedoc/movie[1]"/>
    <duplicate xpath="/moviedoc/movie[2]"/>
  </dupcluster>
</dupresult>

pipeline stages:
  infer      items=1    T
  candidates items=3    T
  describe   items=11   T
  reduce     items=0    T
  compare    items=1    T
  cluster    items=1    T
`
