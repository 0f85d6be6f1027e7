package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/bench/measure"
	"repro/bench/workgen"
)

// Store backends of the programs under test.
const (
	storeMem  = "mem"
	storeDisk = "disk"
	storeDist = "dist"
)

// workload is one named configuration of the system taken through
// its lifecycle: batch detection by the CLI, an incremental update by
// a fresh CLI process, a daemon boot, a read window and a write
// window. Every workload reports every end-to-end metric (the
// driver's contract); `focus` names the ones the workload exists for —
// they get the measured seconds — the rest are short companions taken
// on the same configuration.
type workload struct {
	name   string
	corpus workgen.Params
	store  string
	// The duplicate definition shared by the CLI and the daemon; zero
	// values leave the programs' defaults (kd:6, no filter, GOMAXPROCS
	// workers).
	heuristic string
	filter    bool
	workers   int
	// stream makes the CLI ingest through the pull parser (the daemon
	// does not offer it).
	stream bool
	// Shares of --seconds each measured phase receives. Batch phases
	// with share 0 run the minimum repetitions as companions.
	batchShare, readShare, writeShare float64
	// mixed runs one closed-loop reader beside the writer.
	mixed bool
	focus []string
}

// Sizes are a quarter to a half of the ones ISSUE.md sketches: the
// driver allows about 30 s per run including set-up, and every run
// walks the whole lifecycle. README.md records the values.
var workloads = []workload{
	{
		name:      "detect_cd_mem",
		corpus:    workgen.Params{Kind: workgen.KindCD, Objects: 500, DupShare: 1.0},
		store:     storeMem,
		heuristic: "kd:6", filter: true, workers: 2,
		batchShare: 0.4, readShare: 0.3, writeShare: 0.3,
		focus: []string{"setup_s", "detect_s", "peak_rss_mb", "f1"},
	},
	{
		name:       "batch_movies_disk",
		corpus:     workgen.Params{Kind: workgen.KindMovies, Objects: 400},
		store:      storeDisk,
		heuristic:  "rd:2",
		stream:     true,
		batchShare: 0.3, readShare: 0.3, writeShare: 0.4,
		focus: []string{"setup_s", "detect_s", "update_s", "peak_rss_mb", "f1"},
	},
	{
		name:      "serve_read_mem",
		corpus:    workgen.Params{Kind: workgen.KindCD, Objects: 800, DupShare: 0.1},
		store:     storeMem,
		readShare: 0.6, writeShare: 0.4,
		focus: []string{"setup_s", "read_rps", "read_p50_us", "read_p99_us"},
	},
	{
		name:      "serve_mixed_disk",
		corpus:    workgen.Params{Kind: workgen.KindCD, Objects: 800, DupShare: 0.1},
		store:     storeDisk,
		readShare: 0.3, writeShare: 0.7,
		mixed: true,
		focus: []string{"setup_s", "update_docs_per_s", "update_ack_p50_ms"},
	},
	{
		name:      "serve_dist",
		corpus:    workgen.Params{Kind: workgen.KindCD, Objects: 800, DupShare: 0.1},
		store:     storeDist,
		readShare: 0.6, writeShare: 0.4,
		focus: []string{"setup_s", "read_rps", "read_p50_us", "read_p99_us", "update_docs_per_s", "update_ack_p50_ms"},
	},
}

// Fixed sizes of the run plan.
const (
	distPartitions = 3 // loopback odrpc members of the dist daemon
	readClients    = 2 // closed-loop readers of a read window, one connection each
	minBatchReps   = 3 // a batch timing is the median of at least this many processes
	setupReps      = 3 // set-up (corpus generation + daemon boot) is repeated and its median reported
	restartReps    = 3 // restarts over the store directory after SIGTERM (disk daemons)
	warmupShare    = 0.1
	// rateSlice is the length of the slices a read window's throughput
	// is the median of: a stall of a second (the box is shared) then
	// costs a few slices, not a share of the whole figure.
	rateSlice = 250 * time.Millisecond
	traceKeys = 2000 // seeded request keys / probe calls of the traced pass
)

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) isFocus(metric string) bool {
	for _, m := range w.focus {
		if m == metric {
			return true
		}
	}
	return false
}

// scale is what the envelope records about the workload's size.
func (w *workload) scale(c *workgen.Corpus) map[string]float64 {
	return map[string]float64{
		"objects":      float64(w.corpus.Objects),
		"dup_share":    w.corpus.DupShare,
		"candidates":   float64(c.Candidates()),
		"xml_bytes":    float64(c.XMLBytes()),
		"gold_pairs":   float64(len(c.Gold)),
		"read_clients": readClients,
		"partitions":   float64(w.partitions()),
		"batch_share":  w.batchShare,
		"read_share":   w.readShare,
		"write_share":  w.writeShare,
	}
}

// partitions is the number of federation members (0 off dist).
func (w *workload) partitions() int {
	if w.store == storeDist {
		return distPartitions
	}
	return 0
}

// detectFlags renders the duplicate definition as CLI/daemon flags.
func (w *workload) detectFlags() []string {
	var f []string
	if w.heuristic != "" {
		f = append(f, "-heuristic", w.heuristic)
	}
	if w.filter {
		f = append(f, "-filter")
	}
	if w.workers > 0 {
		f = append(f, "-workers", fmt.Sprint(w.workers))
	}
	return f
}

// storeFlags are the backend flags of a CLI or daemon invocation.
func (w *workload) storeFlags(dir string) []string {
	switch w.store {
	case storeDisk:
		return []string{"-store", "disk", "-store-dir", dir}
	case storeDist:
		return []string{"-store", "dist", "-partitions", fmt.Sprint(distPartitions)}
	}
	return nil
}

// benchmarkFile is what the harness reads of BENCHMARK.json.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []measure.Spec `json:"end_to_end"`
	PerLayer []measure.Spec `json:"per_layer"` // no bounds
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(buf, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// exactSameSeed names the end-to-end metrics that must repeat exactly
// when both sides of a comparison ran the same seed: detection quality
// is a pure function of the inputs.
func exactSameSeed(name string, sameSeed bool) bool {
	return sameSeed && name == "f1"
}
