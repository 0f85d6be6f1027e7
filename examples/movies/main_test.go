package main

import (
	"bytes"
	"regexp"
	"testing"
)

// timings matches the durations the example prints; they vary from run
// to run.
var timings = regexp.MustCompile(`\b(?:\d+(?:\.\d+)?(?:ns|µs|ms|h|m|s))+\b`)

// TestRun runs the example on 20 movies per source and checks what it prints,
// timings masked.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-n", "20"}); err != nil {
		t.Fatal(err)
	}
	if got := timings.ReplaceAllString(out.String(), "T"); got != want {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
}

const want = `20 movies in each source; gold standard pairs source ranks 1:1

radius  pairs  cross  recall  precision
r=1        32     30   90.0%      56.2%
r=2        10     10   50.0%     100.0%
r=3        10     10   50.0%     100.0%
r=4        18     18   90.0%     100.0%

low radii see only the year (high recall, poor precision);
middle radii add titles, genres and the contradicting date
formats; the widest radius adds person lists, strong evidence
once firstname + lastname are compared as one composite value.
`
