package measure

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// Spec is one end-to-end metric as BENCHMARK.json declares it.
type Spec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" | "higher"
	Bound  float64 `json:"bound"`  // share of A's median B may be worse by
}

// Verdicts of one compared metric.
const (
	VerdictOK         = "ok"
	VerdictRegressed  = "regressed"
	VerdictUnresolved = "unresolved"
)

// ExactTolerance is how far two values of an exact metric may differ
// and still count as equal.
const ExactTolerance = 1e-9

// Row is one line of a comparison: one metric of one workload.
type Row struct {
	Workload string
	Metric   string
	Unit     string
	A, B     float64 // medians over each side's runs
	NA, NB   int     // runs per side
	WorsePct float64 // how much worse B is than A, in percent (negative = better)
	Bound    float64
	SpreadA  float64
	SpreadB  float64
	Exact    bool
	Verdict  string
}

// Judge decides one bounded metric from both sides' per-run values.
// B regresses when its median is worse than A's by more than the
// bound. When either side's own spread is wider than the bound the
// medians cannot tell, so the verdict is unresolved — unless every B
// run reads better than every A run.
func Judge(spec Spec, a, b []float64) Row {
	row := Row{
		Metric: spec.Name, Unit: spec.Unit, Bound: spec.Bound,
		A: Median(a), B: Median(b), NA: len(a), NB: len(b),
		SpreadA: Spread(a), SpreadB: Spread(b),
	}
	lower := spec.Better != "higher"
	if row.A != 0 {
		worse := (row.B - row.A) / math.Abs(row.A)
		if !lower {
			worse = -worse
		}
		row.WorsePct = worse * 100
	}
	switch {
	case math.Max(row.SpreadA, row.SpreadB) > spec.Bound && !allBetter(a, b, lower):
		row.Verdict = VerdictUnresolved
	case row.WorsePct/100 > spec.Bound:
		row.Verdict = VerdictRegressed
	default:
		row.Verdict = VerdictOK
	}
	return row
}

// JudgeExact decides a metric that must repeat exactly: every value on
// both sides has to equal every other within ExactTolerance.
func JudgeExact(name, unit string, a, b []float64) Row {
	row := Row{
		Metric: name, Unit: unit, Exact: true,
		A: Median(a), B: Median(b), NA: len(a), NB: len(b),
		Verdict: VerdictOK,
	}
	all := append(append([]float64(nil), a...), b...)
	for _, v := range all {
		if math.Abs(v-all[0]) > ExactTolerance {
			row.Verdict = VerdictRegressed
		}
	}
	if row.A != 0 {
		row.WorsePct = (row.B - row.A) / math.Abs(row.A) * 100
	}
	return row
}

// allBetter reports whether every b is strictly better than every a.
func allBetter(a, b []float64, lower bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if lower {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

// Compare lines up two sets of runs. Per workload it yields one row
// per end-to-end metric of specs that both sides report, judged
// against the metric's bound (or for equality when exact(name, seedsMatch)
// says so), followed by one equality row per metric either side marked
// Exact. Untraced runs feed the end-to-end rows, traced runs the exact
// counts.
func Compare(a, b []Run, specs []Spec, exact func(name string, sameSeed bool) bool) []Row {
	type side struct {
		vals  map[string][]float64
		units map[string]string
		seeds map[int64]bool
		exact map[string]bool
	}
	collect := func(runs []Run) map[string]*side {
		out := map[string]*side{}
		for _, r := range runs {
			s := out[r.Workload]
			if s == nil {
				s = &side{vals: map[string][]float64{}, units: map[string]string{}, seeds: map[int64]bool{}, exact: map[string]bool{}}
				out[r.Workload] = s
			}
			s.seeds[r.Seed] = true
			for name, m := range r.Metrics {
				s.vals[name] = append(s.vals[name], m.Value)
				s.units[name] = m.Unit
				if m.Exact {
					s.exact[name] = true
				}
			}
		}
		return out
	}
	sa, sb := collect(a), collect(b)
	var workloads []string
	for w := range sa {
		if sb[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)

	var rows []Row
	for _, w := range workloads {
		x, y := sa[w], sb[w]
		sameSeed := len(x.seeds) == 1 && len(y.seeds) == 1
		for seed := range x.seeds {
			sameSeed = sameSeed && y.seeds[seed]
		}
		done := map[string]bool{}
		for _, spec := range specs {
			va, vb := x.vals[spec.Name], y.vals[spec.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			done[spec.Name] = true
			var row Row
			if exact != nil && exact(spec.Name, sameSeed) {
				row = JudgeExact(spec.Name, spec.Unit, va, vb)
				row.Bound = spec.Bound
			} else {
				row = Judge(spec, va, vb)
			}
			row.Workload = w
			rows = append(rows, row)
		}
		var counts []string
		for name := range x.exact {
			if !done[name] && len(y.vals[name]) > 0 {
				counts = append(counts, name)
			}
		}
		sort.Strings(counts)
		for _, name := range counts {
			if !sameSeed {
				continue // counts only repeat for one seed
			}
			row := JudgeExact(name, x.units[name], x.vals[name], y.vals[name])
			row.Workload = w
			rows = append(rows, row)
		}
	}
	return rows
}

// Regressed reports whether any row carries the regressed verdict.
func Regressed(rows []Row) bool {
	for _, r := range rows {
		if r.Verdict == VerdictRegressed {
			return true
		}
	}
	return false
}

// WriteRows prints the comparison as an aligned table.
func WriteRows(w io.Writer, rows []Row) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA (n)\tB (n)\tworse by\tbound\tspread A/B\tverdict")
	for _, r := range rows {
		bound := fmt.Sprintf("%.0f%%", r.Bound*100)
		if r.Exact {
			bound = "exact"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g (%d)\t%.6g (%d)\t%+.2f%%\t%s\t%.1f%%/%.1f%%\t%s\n",
			r.Workload, r.Metric, r.Unit, r.A, r.NA, r.B, r.NB, r.WorsePct, bound,
			r.SpreadA*100, r.SpreadB*100, r.Verdict)
	}
	return tw.Flush()
}
