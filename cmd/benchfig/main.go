// Command benchfig regenerates every table and figure of the paper's
// evaluation (Section 6) as text series, from internal/experiments.
//
// Usage:
//
//	benchfig -fig all                 # everything at paper scale
//	benchfig -fig fig5 -n 200         # Figure 5 with 200 CDs
//	benchfig -fig fig7 -n 10000       # Figure 7 at paper scale
//	benchfig -fig tab5                # Table 5
//
// Paper scales: fig5/fig8 use 500 CDs, fig6 uses 500 movies, fig7 uses
// 10,000 discs. Timings, memory and latencies of the system itself are
// not measured here: they come from the reference benchmark
// (go run -C bench ., see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		fig  = flag.String("fig", "all", "which artifact: fig5 fig6 fig7 fig8 tab4 tab5 tab6 all")
		n    = flag.Int("n", 0, "corpus size (0 = paper scale)")
		seed = flag.Int64("seed", 2005, "generator seed")
	)
	flag.Parse()
	if err := run(*fig, *n, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
}

func run(fig string, n int, seed int64) error {
	w := os.Stdout
	want := func(name string) bool { return fig == "all" || fig == name }
	ran := false
	timed := func(name string, fn func() error) error {
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(w, "[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		ran = true
		return nil
	}

	if want("tab4") {
		if err := timed("tab4", func() error {
			return experiments.RenderTab4(w, experiments.Tab4())
		}); err != nil {
			return err
		}
	}
	if want("tab5") {
		if err := timed("tab5", func() error {
			rows, err := experiments.Tab5(seed)
			if err != nil {
				return err
			}
			return experiments.RenderTab5(w, rows)
		}); err != nil {
			return err
		}
	}
	if want("tab6") {
		if err := timed("tab6", func() error {
			rows, err := experiments.Tab6(seed)
			if err != nil {
				return err
			}
			return experiments.RenderTab6(w, rows)
		}); err != nil {
			return err
		}
	}
	if want("fig5") {
		if err := timed("fig5", func() error {
			size := orDefault(n, 500)
			cells, err := experiments.Fig5(size, seed, 8)
			if err != nil {
				return err
			}
			title := fmt.Sprintf("Figure 5 — Dataset 1 (%d CDs + duplicates), k-closest", size)
			return experiments.RenderCells(w, title, "k", cells)
		}); err != nil {
			return err
		}
	}
	if want("fig6") {
		if err := timed("fig6", func() error {
			size := orDefault(n, 500)
			cells, err := experiments.Fig6(size, seed, 4)
			if err != nil {
				return err
			}
			title := fmt.Sprintf("Figure 6 — Dataset 2 (%d movies ×2 sources), r-distant", size)
			return experiments.RenderCells(w, title, "r", cells)
		}); err != nil {
			return err
		}
	}
	if want("fig7") {
		if err := timed("fig7", func() error {
			size := orDefault(n, 10000)
			points, err := experiments.Fig7(size, seed, nil)
			if err != nil {
				return err
			}
			return experiments.RenderFig7(w, points)
		}); err != nil {
			return err
		}
	}
	if want("fig8") {
		if err := timed("fig8", func() error {
			size := orDefault(n, 500)
			points, err := experiments.Fig8(size, seed, nil)
			if err != nil {
				return err
			}
			return experiments.RenderFig8(w, points)
		}); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown -fig %q (want one of: fig5 fig6 fig7 fig8 tab4 tab5 tab6 all)", fig)
	}
	return nil
}

func orDefault(n, def int) int {
	if n <= 0 {
		return def
	}
	return n
}
