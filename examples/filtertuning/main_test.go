package main

import (
	"bytes"
	"regexp"
	"testing"
)

// timings matches the durations the example prints; they vary from run
// to run.
var timings = regexp.MustCompile(`\b(?:\d+(?:\.\d+)?(?:ns|µs|ms|h|m|s))+\b`)

// TestRun runs the example on a 40-disc catalog and checks what it prints,
// timings masked.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-n", "40"}); err != nil {
		t.Fatal(err)
	}
	if got := timings.ReplaceAllString(out.String(), "T"); got != want {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
}

const want = `objects: 56 (32 with a true duplicate)

f(OD) distribution:
  p10 = 0.171
  p25 = 0.341
  p50 = 0.689
  p75 = 1.000
  p90 = 1.000

θcand  pruned  objects-with-dup pruned  comparisons left
0.40       15                        0         820 pairs
0.50       19                        0         666 pairs
0.55       26                        3         435 pairs
0.60       27                        3         406 pairs
0.70       29                        5         351 pairs

pick the largest θcand that prunes no true duplicates;
the paper's default of 0.55 balances safety against cost.
`
