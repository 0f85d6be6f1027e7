package measure

import (
	"math"
	"path/filepath"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// A percentile is reported only when at least ten samples lie beyond it.
func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 99, false}, // ceil(989.01)=990 -> 9 beyond
		{1000, 99, true}, // rank 990 -> 10 beyond
		{1001, 99, true}, // rank 991 -> 10 beyond
		{100, 90, true},  // rank 90 -> 10 beyond
		{99, 90, false},  // rank 90 -> 9 beyond
		{20, 50, true},   // rank 10 -> 10 beyond
		{19, 50, false},  // rank 10 -> 9 beyond
		{10000, 99.9, true},
		{9999, 99.9, false},
		{0, 50, false},
	} {
		if got := Supported(tc.n, tc.p); got != tc.want {
			t.Errorf("Supported(n=%d, p=%v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}

	v, ok := Percentile(seq(1000), 99)
	if v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	// Too small a sample still yields the nearest-rank value, flagged.
	v, ok = Percentile(seq(50), 99)
	if v != 50 || ok {
		t.Errorf("p99 of 1..50 = %v, %v; want 50, false", v, ok)
	}
	if _, ok := Percentile(nil, 50); ok {
		t.Error("a percentile of nothing was reported as supported")
	}

	if p, ok := HighestSupported(150, 50, 90, 99); !ok || p != 90 {
		t.Errorf("HighestSupported(150) = %v, %v; want 90, true", p, ok)
	}
	if _, ok := HighestSupported(5, 50, 90, 99); ok {
		t.Error("five samples support no percentile")
	}
}

func TestMedianAndSpread(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(tc.xs); got != tc.want {
			t.Errorf("Median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := Quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("Quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = Quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("Quartiles(1,2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if got, want := Spread(seq(10)), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread(1..10) = %v, want %v", got, want)
	}
	if Spread([]float64{5}) != 0 || Spread(nil) != 0 {
		t.Error("fewer than two samples have no spread")
	}
	if Max([]float64{-3, -1, -2}) != -1 || Max(nil) != 0 {
		t.Error("Max")
	}
}

// A layer's self time is its span minus the part of it that its child
// spans cover: overlapping children count once, children are clipped
// to the parent, grandchildren belong to their own parent.
func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "request", StartUS: 0, EndUS: 100},
		{ID: 1, Parent: 0, Name: "handler", StartUS: 10, EndUS: 90},
		{ID: 2, Parent: 1, Name: "member", StartUS: 20, EndUS: 50},
		{ID: 3, Parent: 1, Name: "member", StartUS: 30, EndUS: 70},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "member", StartUS: 80, EndUS: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "store", StartUS: 25, EndUS: 45},
		{ID: 6, Parent: -1, Name: "leaf", StartUS: 200, EndUS: 260},
	}
	want := map[int]float64{
		0: 20, // 100 - handler's 80
		1: 20, // 80 - (union [20,70] = 50) - (clipped [80,90] = 10)
		2: 10, // 30 - store's 20
		3: 40,
		4: 40,
		5: 20,
		6: 60,
	}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d (%s) = %v, want %v", id, spans[id].Name, got[id], w)
		}
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	root := r.Start("run", -1, 7)
	ran := false
	d := r.Time("stage", root, 7, func() { ran = true })
	r.End(root)
	spans := r.Spans()
	child := len(spans) - 1
	if !ran || len(spans) != 2 || spans[child].Parent != root || spans[child].Key != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if d < 0 || spans[root].Duration() < spans[child].Duration() {
		t.Errorf("child outlasts its parent: %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
}

func TestJudge(t *testing.T) {
	lower := Spec{Name: "latency", Unit: "us", Better: "lower", Bound: 0.10}
	higher := Spec{Name: "rps", Unit: "req/s", Better: "higher", Bound: 0.10}
	tight := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center * 0.995, center * 1.005}
	}
	for _, tc := range []struct {
		name string
		spec Spec
		a, b []float64
		want string
	}{
		{"same", lower, tight(100), tight(100), VerdictOK},
		{"worse within the bound", lower, tight(100), tight(108), VerdictOK},
		{"worse beyond the bound", lower, tight(100), tight(115), VerdictRegressed},
		{"better", lower, tight(100), tight(60), VerdictOK},
		{"higher is better: drop beyond the bound", higher, tight(1000), tight(850), VerdictRegressed},
		{"higher is better: gain", higher, tight(1000), tight(1300), VerdictOK},
		{"spread wider than the bound", lower, []float64{80, 100, 120, 90, 110}, tight(100), VerdictUnresolved},
		{"wide spread, yet every B beats every A", lower, []float64{80, 100, 120, 90, 110}, tight(50), VerdictOK},
		{"single runs have no spread", lower, []float64{100}, []float64{109}, VerdictOK},
		{"single runs, beyond the bound", lower, []float64{100}, []float64{111}, VerdictRegressed},
	} {
		if got := Judge(tc.spec, tc.a, tc.b); got.Verdict != tc.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", tc.name, got.Verdict, tc.want, got)
		}
	}

	if got := JudgeExact("pairs", "count", []float64{5, 5}, []float64{5}); got.Verdict != VerdictOK {
		t.Errorf("equal counts: %+v", got)
	}
	if got := JudgeExact("pairs", "count", []float64{5, 5}, []float64{6}); got.Verdict != VerdictRegressed {
		t.Errorf("differing counts: %+v", got)
	}
	if got := JudgeExact("f1", "ratio", []float64{0.9}, []float64{0.9 + 1e-12}); got.Verdict != VerdictOK {
		t.Errorf("within tolerance: %+v", got)
	}
}

func TestCompare(t *testing.T) {
	specs := []Spec{
		{Name: "detect_s", Unit: "s", Better: "lower", Bound: 0.10},
		{Name: "f1", Unit: "ratio", Better: "higher", Bound: 0.05},
	}
	run := func(workload string, seed int64, trace bool, metrics map[string]Metric) Run {
		return Run{Workload: workload, Seed: seed, Trace: trace, Metrics: metrics}
	}
	m := func(v float64) Metric { return Metric{Value: v, Unit: "x"} }
	count := func(v float64) Metric { return Metric{Value: v, Unit: "count", Layer: true, Exact: true} }
	exact := func(name string, sameSeed bool) bool { return sameSeed && name == "f1" }

	a := []Run{
		run("w1", 1, false, map[string]Metric{"detect_s": m(1.00), "f1": m(0.90)}),
		run("w1", 1, true, map[string]Metric{"core.compared_pairs": count(100)}),
		run("w2", 1, false, map[string]Metric{"detect_s": m(2.00)}),
	}
	b := []Run{
		run("w1", 1, false, map[string]Metric{"detect_s": m(1.20), "f1": m(0.90)}),
		run("w1", 1, true, map[string]Metric{"core.compared_pairs": count(101)}),
		run("w3", 1, false, map[string]Metric{"detect_s": m(2.00)}),
	}
	rows := Compare(a, b, specs, exact)
	verdicts := map[string]string{}
	for _, r := range rows {
		if r.Workload != "w1" {
			t.Errorf("row for %s: only w1 is on both sides", r.Workload)
		}
		verdicts[r.Metric] = r.Verdict
	}
	want := map[string]string{
		"detect_s":            VerdictRegressed,
		"f1":                  VerdictOK,
		"core.compared_pairs": VerdictRegressed,
	}
	for name, v := range want {
		if verdicts[name] != v {
			t.Errorf("%s: verdict %q, want %q", name, verdicts[name], v)
		}
	}
	if !Regressed(rows) {
		t.Error("Regressed() missed the regressed rows")
	}

	// Different seeds: f1 falls back to its bound, counts are skipped.
	b[0].Seed, b[1].Seed = 2, 2
	b[0].Metrics["f1"] = m(0.89)
	for _, r := range Compare(a, b, specs, exact) {
		switch r.Metric {
		case "f1":
			if r.Exact || r.Verdict != VerdictOK {
				t.Errorf("f1 across seeds: %+v", r)
			}
		case "core.compared_pairs":
			t.Error("an exact count was compared across different seeds")
		}
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	env := &Envelope{Commit: "abc", Seed: 3, Runs: []Run{{
		Workload: "w", Attempted: 10, Failed: 1,
		Metrics: map[string]Metric{"x": {Value: 1.5, Unit: "s", N: 3}},
	}}}
	path := filepath.Join(t.TempDir(), "env.json")
	if err := env.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEnvelope(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Commit != "abc" || len(got.Runs) != 1 || got.Runs[0].Metrics["x"].Value != 1.5 {
		t.Errorf("round trip lost data: %+v", got)
	}
	if r := got.Runs[0].FailRatio(); r != 0.1 {
		t.Errorf("FailRatio = %v, want 0.1", r)
	}
	if (&Run{}).FailRatio() != 0 {
		t.Error("FailRatio of nothing attempted")
	}
}
