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

const want = `first run  (build + save): warm-start=false — 160 candidates, 75 pairs, 75 clusters in T
  warmstart  items=0      T
  infer      items=1      T
  candidates items=160    T
  describe   items=839    T
  reduce     items=6      T
  snapshot   items=160    T
  compare    items=1153   T
  cluster    items=75     T
  traces     items=1153   T

second run (reuse): warm-start=true — 160 candidates, 75 pairs, 75 clusters in T
  warmstart  items=160    T
  adopt      items=1153   T
  update     items=0      T
  reduce     items=6      T
  snapshot   items=0      T
  compare    items=0      T
  cluster    items=75     T
  traces     items=1153   T

warm start reproduced all 75 pairs bit-identically

third run  (corpus changed): warm-start=false — 160 candidates, 75 pairs, 75 clusters in T
  warmstart  items=0      T
  infer      items=1      T
  candidates items=160    T
  describe   items=839    T
  reduce     items=6      T
  snapshot   items=160    T
  compare    items=1153   T
  cluster    items=75     T
  traces     items=1153   T

changed corpus missed the fingerprint and rebuilt — never stale
`
