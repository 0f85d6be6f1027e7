package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// timings matches the durations the example prints; they vary from run
// to run.
var timings = regexp.MustCompile(`\b(?:\d+(?:\.\d+)?(?:ns|µs|ms|h|m|s))+\b`)

// TestRun runs the example on its 80-disc corpus and checks what it prints,
// timings masked. It also checks that the run leaves nothing in TMPDIR.
func TestRun(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if got := timings.ReplaceAllString(out.String(), "T"); got != want {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("run left %v in TMPDIR (%v)", left, err)
	}
}

const want = `corpus: cds.xml (79.6 KB on disk)

materialized: 160 candidates, 75 pairs, 75 clusters in T
  infer      items=1      T
  candidates items=160    T
  describe   items=839    T
  reduce     items=6      T
  compare    items=1153   T
  cluster    items=75     T

streamed: 160 candidates, 75 pairs, 75 clusters in T
  infer      items=1      T
  candidates items=160    T
  describe   items=839    T
  reduce     items=6      T
  compare    items=1153   T
  cluster    items=75     T

both modes agree: 75 duplicate clusters
  cluster 0: /freedb/disc[1] /freedb/disc[93]
  cluster 1: /freedb/disc[2] /freedb/disc[115]
  cluster 2: /freedb/disc[3] /freedb/disc[91]
  cluster 3: /freedb/disc[4] /freedb/disc[96]
  cluster 4: /freedb/disc[5] /freedb/disc[137]
  ... and 70 more
`
