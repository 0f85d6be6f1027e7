// Command bench is the repository's reference benchmark. It builds
// the real cmd/dogmatix and cmd/dogmatixd binaries from the checkout
// it runs in, drives them as child processes with inputs generated
// from a seed, checks every output, and prints every metric by name
// with its unit and sample count.
//
// Usage, from the repository root:
//
//	go run -C bench . [-workload NAME] [-seed N] [-seconds N] [-trace 0|1] [-runs N] [-json OUT]
//	go run -C bench . -compare A.json B.json
//
// Without -workload all five workloads run. -trace 0 (the default)
// measures the end-to-end metrics from untraced processes; -trace 1
// replays the same inputs in process, recording spans around the calls
// into each layer, writes <workload>.trace.json and reports the
// per-layer metrics. The last line of standard output of a
// single-workload run is the one-line JSON result the driver reads.
// The exit code is non-zero when any output check failed.
//
// See README.md in this directory for the metrics, the workloads and
// what each layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/bench/measure"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all five)")
		seed         = flag.Int64("seed", 2005, "seed every generated input derives from")
		seconds      = flag.Float64("seconds", 0, "length of the measured part of a run (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics from untraced processes; 1: traced in-process pass, per-layer metrics")
		runs         = flag.Int("runs", 1, "repetitions of each workload (a set of runs for -compare)")
		jsonOut      = flag.String("json", "", "write the result envelope to this file")
		outDir       = flag.String("out", "", "directory for trace files (default: .bench_build/out)")
		compare      = flag.Bool("compare", false, "compare two result envelopes: -compare A.json B.json")
	)
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace, *runs, *jsonOut, *outDir, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailedChecks makes the exit code non-zero after the results have
// been printed.
var errFailedChecks = fmt.Errorf("output checks failed (fail_ratio > 0)")

func run(workloadName string, seed int64, seconds float64, trace, runs int, jsonOut, outDir string, compare bool, args []string) error {
	begin := time.Now()
	root, err := findRoot()
	if err != nil {
		return err
	}
	// `go run -C bench` starts the program inside bench/; relative paths
	// on the command line are meant relative to the repository root.
	if err := os.Chdir(root); err != nil {
		return err
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	if compare {
		return compareFiles(bf, args)
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %v", args)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if seconds == 0 {
		seconds = float64(bf.RunSeconds)
	}
	if seconds <= 0 || runs < 1 {
		return fmt.Errorf("-seconds and -runs must be positive")
	}
	selected := workloads
	if workloadName != "" {
		w, err := findWorkload(workloadName)
		if err != nil {
			return err
		}
		selected = []workload{*w}
	}

	build := filepath.Join(root, ".bench_build")
	if outDir == "" {
		outDir = filepath.Join(build, "out")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	bins, err := buildBinaries(root, filepath.Join(build, "bin"))
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	env := &runEnv{bins: bins, work: work, out: outDir}

	envelope := &measure.Envelope{
		Commit:     commit(root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Seed:       seed,
		Started:    begin.UTC().Format(time.RFC3339),
	}
	failed := false
	for i := range selected {
		w := &selected[i]
		for rep := 0; rep < runs; rep++ {
			var r *measure.Run
			if trace == 1 {
				r, err = env.runTraced(w, seed, seconds, rep)
			} else {
				r, err = env.runUntraced(w, seed, seconds, rep)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			envelope.Runs = append(envelope.Runs, *r)
			failed = failed || !r.Correct
			printRun(w, r, bf)
		}
	}
	envelope.WallS = time.Since(begin).Seconds()
	if jsonOut != "" {
		if err := envelope.WriteFile(jsonOut); err != nil {
			return err
		}
	}
	if failed {
		return errFailedChecks
	}
	return nil
}

// findRoot locates the checkout: the directory holding BENCHMARK.json,
// which is the working directory or its parent (under `go run -C bench`).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "dogmatixd")); err != nil {
				return "", fmt.Errorf("%s holds BENCHMARK.json but not the programs under test (cmd/dogmatixd): %w", dir, err)
			}
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in %s or its parent; run from the repository root", wd)
}

// commit names the measured source: the git commit when the checkout
// is a repository, "unknown" when it is a bare copy of the files.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// driverResult is the one-line JSON object the driver reads.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printRun prints every metric of the run by name, with unit and
// sample count, then the driver's result line: the end-to-end metrics
// of BENCHMARK.json for an untraced run, its per-layer metrics for a
// traced one.
func printRun(w *workload, r *measure.Run, bf *benchmarkFile) {
	pass := "untraced"
	if r.Trace {
		pass = "traced"
	}
	fmt.Printf("== %s seed=%d seconds=%g %s run %d (%.1fs wall)\n", r.Workload, r.Seed, r.Seconds, pass, r.Index, r.WallS)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		tags := ""
		switch {
		case m.Layer && m.Exact:
			tags = " [=]"
		case !m.Layer && w.isFocus(name):
			tags = " [focus]"
		case !m.Layer:
			tags = " [companion]"
		}
		if m.Note != "" {
			tags += " (" + m.Note + ")"
		}
		fmt.Printf("%-32s %14.6g %-7s n=%d%s\n", name, m.Value, m.Unit, m.N, tags)
	}
	fmt.Printf("%-32s %14.6g %-7s n=%d (%d failed)\n", "fail_ratio", r.FailRatio(), "ratio", r.Attempted, r.Failed)
	for _, reason := range r.Failures {
		fmt.Printf("  failed: %s\n", reason)
	}
	if r.TraceFile != "" {
		fmt.Printf("  spans: %s\n", r.TraceFile)
	}

	res := driverResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverMetric{}}
	specs := bf.EndToEnd
	if r.Trace {
		specs = bf.PerLayer
	}
	for _, spec := range specs {
		res.Metrics[spec.Name] = driverMetric{Value: r.Metrics[spec.Name].Value, Unit: spec.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(line))
}

// compareFiles implements -compare A.json B.json.
func compareFiles(bf *benchmarkFile, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two envelope files, got %d", len(args))
	}
	a, err := measure.ReadEnvelope(args[0])
	if err != nil {
		return err
	}
	b, err := measure.ReadEnvelope(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("A: %s commit %s seed %d (%d runs)\nB: %s commit %s seed %d (%d runs)\n",
		args[0], a.Commit, a.Seed, len(a.Runs), args[1], b.Commit, b.Seed, len(b.Runs))
	rows := measure.Compare(a.Runs, b.Runs, bf.EndToEnd, exactSameSeed)
	if err := measure.WriteRows(os.Stdout, rows); err != nil {
		return err
	}
	if measure.Regressed(rows) {
		return fmt.Errorf("regressed")
	}
	return nil
}
