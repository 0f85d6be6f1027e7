package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dirty"
	"repro/internal/evalmetrics"
	"repro/internal/heuristics"
	"repro/internal/sim"
)

// Paper thresholds for the effectiveness experiments (Sec. 6.2).
const (
	ThetaTuple = 0.15
	ThetaCand  = 0.55
)

// Cell is one measurement of an effectiveness sweep: experiment exp
// (Table 4 condition combination) at sweep position X (k for Fig. 5, r
// for Fig. 6).
type Cell struct {
	Exp int
	X   int
	PR  evalmetrics.PR
}

// Fig5 reproduces Figure 5: recall and precision on Dataset 1 for the
// k-closest heuristic, k = 1..8, under the eight condition combinations
// of Table 4, with θtuple = 0.15 and θcand = 0.55.
func Fig5(n int, seed int64, maxK int) ([]Cell, error) {
	if err := checkRange("maxK", maxK, 1, 8); err != nil {
		return nil, err
	}
	ds, err := BuildDataset1(n, seed, dirty.Dataset1Params())
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for exp := 1; exp <= heuristics.ExperimentCount; exp++ {
		for k := 1; k <= maxK; k++ {
			h, err := heuristics.Experiment(exp, heuristics.KClosestDescendants(k))
			if err != nil {
				return nil, err
			}
			pr, err := runDataset1(ds, h)
			if err != nil {
				return nil, fmt.Errorf("fig5 exp%d k=%d: %w", exp, k, err)
			}
			cells = append(cells, Cell{Exp: exp, X: k, PR: pr})
		}
	}
	return cells, nil
}

// dataset1ParamsWithDupPct keeps the Dataset 1 error rates but varies the
// duplicate percentage, as the Fig. 8 sweep requires.
func dataset1ParamsWithDupPct(pct float64) dirty.Params {
	p := dirty.Dataset1Params()
	p.DuplicatePct = pct
	return p
}

func runDataset1(ds *Dataset1, h heuristics.Heuristic) (evalmetrics.PR, error) {
	det, err := core.NewDetector(ds.Mapping, core.Config{
		Heuristic:  h,
		ThetaTuple: ThetaTuple,
		ThetaCand:  ThetaCand,
	})
	if err != nil {
		return evalmetrics.PR{}, err
	}
	res, err := det.Detect("DISC", core.Source{Doc: ds.Doc, Schema: ds.Schema})
	if err != nil {
		return evalmetrics.PR{}, err
	}
	detected := evalmetrics.NewPairSet(res.PairSet()...)
	return evalmetrics.PairsPR(detected, ds.Gold), nil
}

// Fig6 reproduces Figure 6: recall and precision on Dataset 2 for the
// r-distant descendants heuristic, r = 1..4, under the eight condition
// combinations.
func Fig6(n int, seed int64, maxR int) ([]Cell, error) {
	if err := checkRange("maxR", maxR, 1, 4); err != nil {
		return nil, err
	}
	ds, err := BuildDataset2(n, seed)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for exp := 1; exp <= heuristics.ExperimentCount; exp++ {
		for r := 1; r <= maxR; r++ {
			h, err := heuristics.Experiment(exp, heuristics.RDistantDescendants(r))
			if err != nil {
				return nil, err
			}
			pr, err := runDataset2(ds, h)
			if err != nil {
				return nil, fmt.Errorf("fig6 exp%d r=%d: %w", exp, r, err)
			}
			cells = append(cells, Cell{Exp: exp, X: r, PR: pr})
		}
	}
	return cells, nil
}

func runDataset2(ds *Dataset2, h heuristics.Heuristic) (evalmetrics.PR, error) {
	det, err := core.NewDetector(ds.Mapping, core.Config{
		Heuristic:  h,
		ThetaTuple: ThetaTuple,
		ThetaCand:  ThetaCand,
	})
	if err != nil {
		return evalmetrics.PR{}, err
	}
	res, err := det.Detect("MOVIE",
		core.Source{Name: "imdb", Doc: ds.IMDB, Schema: ds.SchemaIMDB},
		core.Source{Name: "filmdienst", Doc: ds.FilmDienst, Schema: ds.SchemaFD},
	)
	if err != nil {
		return evalmetrics.PR{}, err
	}
	detected := evalmetrics.NewPairSet(res.PairSet()...)
	return evalmetrics.PairsPR(detected, ds.Gold), nil
}

// Fig7Point is one point of the Figure 7 threshold sweep.
type Fig7Point struct {
	Theta     float64
	Pairs     int // duplicates detected at this θcand
	TruePairs int
	Precision float64
}

// Fig7 reproduces Figure 7: precision on Dataset 3 for exp1 with the
// k-closest heuristic (k = 6), sweeping θcand from 0.55 to 1.00. The
// detection runs once at the lowest threshold (with the object filter
// enabled, as in the pipeline); higher thresholds re-classify the scored
// pairs, which is equivalent and matches the paper's protocol of
// reporting one result set across thresholds.
func Fig7(total int, seed int64, thetas []float64) ([]Fig7Point, error) {
	if len(thetas) == 0 {
		for t := 0.55; t <= 1.0001; t += 0.05 {
			thetas = append(thetas, t)
		}
	}
	sort.Float64s(thetas)
	ds, err := BuildDataset3(total, seed)
	if err != nil {
		return nil, err
	}
	h, err := heuristics.Experiment(1, heuristics.KClosestDescendants(6))
	if err != nil {
		return nil, err
	}
	det, err := core.NewDetector(ds.Mapping, core.Config{
		Heuristic:  h,
		ThetaTuple: ThetaTuple,
		ThetaCand:  thetas[0],
		UseFilter:  true,
	})
	if err != nil {
		return nil, err
	}
	res, err := det.Detect("DISC", core.Source{Doc: ds.Doc, Schema: ds.Schema})
	if err != nil {
		return nil, err
	}
	points := make([]Fig7Point, 0, len(thetas))
	for _, theta := range thetas {
		p := Fig7Point{Theta: theta}
		for _, pair := range res.Pairs {
			if pair.Score > theta {
				p.Pairs++
				if ds.Gold.Has(pair.I, pair.J) {
					p.TruePairs++
				}
			}
		}
		if p.Pairs > 0 {
			p.Precision = float64(p.TruePairs) / float64(p.Pairs)
		} else {
			p.Precision = 1
		}
		points = append(points, p)
	}
	return points, nil
}

// Fig8Point is one point of the Figure 8 duplicate-percentage sweep.
type Fig8Point struct {
	DuplicatePct float64
	Pruned       int
	PR           evalmetrics.PR
}

// Fig8 reproduces Figure 8: recall and precision of the object filter on
// the Dataset 1 CDs while the percentage of artificially generated
// duplicates varies (the paper sweeps 0%..90%). Heuristic: exp1 with
// k = 6; an object is pruned when f(ODi) <= θcand, using the pipeline's
// indexed filter (sim.Filter). The literal Eq. 9 intersection
// (sim.FilterExact) is globally brittle — a single object missing a field
// removes that field from every object's Sunique — so the pipeline
// semantics ("unique = similar to no other object") is what the sweep
// evaluates. The paper-scale record of such deviations is ROADMAP.md
// item 19b.
func Fig8(n int, seed int64, pcts []float64) ([]Fig8Point, error) {
	if len(pcts) == 0 {
		for p := 0.0; p <= 0.9001; p += 0.1 {
			pcts = append(pcts, p)
		}
	}
	h, err := heuristics.Experiment(1, heuristics.KClosestDescendants(6))
	if err != nil {
		return nil, err
	}
	var points []Fig8Point
	for _, pct := range pcts {
		ds, err := BuildDataset1(n, seed, dataset1ParamsWithDupPct(pct))
		if err != nil {
			return nil, err
		}
		det, err := core.NewDetector(ds.Mapping, core.Config{
			Heuristic:  h,
			ThetaTuple: ThetaTuple,
			ThetaCand:  ThetaCand,
			FilterOnly: true,
		})
		if err != nil {
			return nil, err
		}
		res, err := det.Detect("DISC", core.Source{Doc: ds.Doc, Schema: ds.Schema})
		if err != nil {
			return nil, err
		}
		var pruned []int32
		for _, o := range res.Store.ODs() {
			if sim.Filter(res.Store, o) <= ThetaCand {
				pruned = append(pruned, o.ID)
			}
		}
		hasDup := func(id int32) bool {
			for p := range ds.Gold {
				if p.A == id || p.B == id {
					return true
				}
			}
			return false
		}
		pr := evalmetrics.FilterPR(pruned, hasDup, res.Stats.Candidates)
		points = append(points, Fig8Point{DuplicatePct: pct, Pruned: len(pruned), PR: pr})
	}
	return points, nil
}
