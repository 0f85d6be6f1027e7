package main

import (
	"bytes"
	"regexp"
	"testing"
)

// timings matches the durations the example prints; they vary from run
// to run.
var timings = regexp.MustCompile(`\b(?:\d+(?:\.\d+)?(?:ns|µs|ms|h|m|s))+\b`)

// TestRun runs the example on a 30-disc catalog and checks what it prints,
// timings masked.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-n", "30"}); err != nil {
		t.Fatal(err)
	}
	if got := timings.ReplaceAllString(out.String(), "T"); got != want {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
}

const want = `catalog: 30 discs + 30 dirty duplicates (81 typos, 45 drops, 3 synonyms)

heuristic          pairs  recall  precision  F1
kd:1                  61   93.3%      45.9%  0.615
kd:3                  29   96.7%     100.0%  0.983
kd:6                  28   93.3%     100.0%  0.966
rd:1                  28   93.3%     100.0%  0.966
rd:2                  40   90.0%      67.5%  0.771
kd:6[csdt,cme]        29   96.7%     100.0%  0.983
`
