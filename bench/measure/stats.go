// Package measure holds the arithmetic of the reference benchmark: the
// percentile rule (a percentile is reported only when at least ten
// samples lie beyond it), in-memory spans with self-time accounting,
// the result envelope every run is written into, and the verdicts
// `bench -compare` hands out. Nothing in here starts a process or
// touches the packages under test, so its tests run in milliseconds.
package measure

import (
	"math"
	"sort"
)

// MinBeyond is the number of samples that must lie beyond a percentile
// before it is reported: with fewer, the figure is one or two outliers,
// not a property of the distribution.
const MinBeyond = 10

// Median returns the median of xs (the mean of the two middle values
// for an even count) and 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Max returns the largest value of xs, 0 when empty.
func Max(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Supported reports whether percentile p (0 < p < 100) may be reported
// for n samples: at least MinBeyond samples must lie beyond it.
func Supported(n int, p float64) bool {
	return beyond(n, p) >= MinBeyond
}

// beyond is the number of samples strictly above the nearest-rank
// position of percentile p.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the nearest-rank (1-based) position of percentile p among n
// sorted samples.
func rank(n int, p float64) int {
	// The small slack keeps 99.9 % of 10000 at rank 9990 although the
	// product is not exactly representable.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Percentile returns the nearest-rank percentile p of xs and whether
// the sample supports it under the MinBeyond rule. An unsupported
// percentile still returns its nearest-rank value, so a caller that
// must print a number can, flagged as under-sampled.
func Percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	return s[rank(len(s), p)-1], Supported(len(s), p)
}

// HighestSupported returns the largest of the candidate percentiles
// that n samples support, and false when none is.
func HighestSupported(n int, candidates ...float64) (float64, bool) {
	best, found := 0.0, false
	for _, p := range candidates {
		if Supported(n, p) && p > best {
			best, found = p, true
		}
	}
	return best, found
}

// Quartiles returns the first and third quartile of xs by the
// exclusive method (the one Python's statistics.quantiles(xs, n=4)
// uses), so spreads computed here match the ones the driver computes.
// With fewer than two samples both are the single value (or 0).
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4 (1-based) with linear interpolation; like
		// Python, the index is clamped to [1, n-1] and the remainder is
		// kept, so tiny samples extrapolate instead of collapsing.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// Spread is the interquartile distance of xs as a share of its median:
// the run-to-run noise figure bounds are judged against. It is 0 for
// fewer than two samples or a zero median.
func Spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := Median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := Quartiles(xs)
	return math.Abs((q3 - q1) / med)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
