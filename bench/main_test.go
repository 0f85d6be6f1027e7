package main

import (
	"errors"
	"flag"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/bench/measure"
	"repro/bench/workgen"
)

var benchSmoke = flag.Bool("bench-smoke", false, "build the binaries and take all five workloads through both passes at tiny scale")

// TestSmoke is the end-to-end check of the harness itself: real
// processes, every workload, untraced and traced, at a scale that
// finishes in well under a minute. It is off by default so that
// `go test ./...` stays fast and spawns nothing:
//
//	go test -C bench . -run Smoke -bench-smoke
func TestSmoke(t *testing.T) {
	if !*benchSmoke {
		t.Skip("pass -bench-smoke to run the end-to-end smoke of all five workloads")
	}
	for i := range workloads {
		workloads[i].corpus.Objects = 60
	}
	root, err := findRoot() // run() moves the working directory there
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, trace := range []int{0, 1} {
		envelope := filepath.Join(out, "smoke.json")
		if err := run("", 7, 2, trace, 1, envelope, out, false, nil); err != nil {
			t.Fatalf("trace=%d: %v", trace, err)
		}
		env, err := measure.ReadEnvelope(envelope)
		if err != nil {
			t.Fatal(err)
		}
		if len(env.Runs) != len(workloads) {
			t.Fatalf("trace=%d: %d runs, want %d", trace, len(env.Runs), len(workloads))
		}
		for _, r := range env.Runs {
			if !r.Correct || r.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failures=%v", r.Workload, trace, r.Correct, r.Attempted, r.Failures)
			}
			if trace == 0 {
				for _, spec := range bf.EndToEnd {
					if m, ok := r.Metrics[spec.Name]; !ok || m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %+v", r.Workload, spec.Name, m)
					}
				}
				continue
			}
			for _, spec := range bf.PerLayer {
				if _, ok := r.Metrics[spec.Name]; !ok {
					t.Errorf("%s: per-layer metric %s missing", r.Workload, spec.Name)
				}
			}
		}
	}
}

// BENCHMARK.json and the harness must agree on the workloads.
func TestBenchmarkFileMatchesWorkloads(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	e2e := map[string]bool{}
	for _, spec := range bf.EndToEnd {
		e2e[spec.Name] = true
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, bf.Workloads[i].Name, w.name)
		}
		if share := w.batchShare + w.readShare + w.writeShare; share < 0.999 || share > 1.001 {
			t.Errorf("%s: measured shares sum to %v, want 1", w.name, share)
		}
		for _, f := range w.focus {
			if !e2e[f] {
				t.Errorf("%s: focus metric %s is not an end-to-end metric of BENCHMARK.json", w.name, f)
			}
		}
		if _, err := w.coreConfig(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	if _, err := findWorkload("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestCommandLines(t *testing.T) {
	cd := &site{dir: "/d", mapping: "/d/mapping.txt", docs: []string{"/d/cds.xml"}, corpus: &workgen.Corpus{Type: "DISC"}}
	batch := workgen.UpdateBatch{Remove: []string{"0:/freedb/disc[3]", "0:/freedb/disc[9]"}}
	for _, tc := range []struct {
		name string
		got  []string
		want string
	}{
		{"detect mem", cd.detectArgs(&workloads[0], "/s"),
			"-map /d/mapping.txt -type DISC -heuristic kd:6 -filter -workers 2 -pairs /d/cds.xml"},
		{"detect disk", cd.detectArgs(&workloads[3], "/s"),
			"-map /d/mapping.txt -type DISC -pairs -store disk -store-dir /s -reuse-index /d/cds.xml"},
		{"detect stream", cd.detectArgs(&workloads[1], "/s"),
			"-map /d/mapping.txt -type DISC -heuristic rd:2 -pairs -stream -store disk -store-dir /s -reuse-index /d/cds.xml"},
		{"daemon dist", cd.daemonArgs(&workloads[4], "/s"),
			"-map /d/mapping.txt -type DISC -store dist -partitions 3 /d/cds.xml"},
		{"restart", cd.restartArgs(&workloads[3], "/s"),
			"-map /d/mapping.txt -type DISC -store disk -store-dir /s"},
		{"update", cd.updateArgs(&workloads[3], "/s", "/d/u.xml", batch),
			"-map /d/mapping.txt -type DISC -pairs -update -store-dir /s -remove 0:/freedb/disc[3] -remove 0:/freedb/disc[9] /d/u.xml"},
		{"submit", submitArgs("http://h:1", "/d/u.xml", batch),
			"submit -daemon http://h:1 -remove 0:/freedb/disc[3] -remove 0:/freedb/disc[9] /d/u.xml"},
	} {
		if got := strings.Join(tc.got, " "); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

func TestEndToEndMetrics(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ph := &phases{
		setup: []float64{1.2, 1.0, 1.1}, detect: []float64{2, 4, 3}, update: []float64{0.5},
		peakRSS: 77, procs: 4, f1: 0.9,
		readFrom: t0, readUntil: t0.Add(2 * time.Second),
		writeFrom: t0.Add(3 * time.Second), writeUntil: t0.Add(7 * time.Second),
	}
	for i := 0; i < 2000; i++ {
		// 250 completions in every quarter-second slice
		ph.reads = append(ph.reads, readSample{lat: time.Duration(i+1) * time.Microsecond, done: t0.Add(time.Duration(i) * time.Millisecond)})
	}
	for i := 1; i <= 4; i++ {
		ph.acks = append(ph.acks, ackSample{lat: time.Duration(i*100) * time.Millisecond, done: ph.writeFrom.Add(time.Duration(i*500) * time.Millisecond)})
		ph.mixedReads = append(ph.mixedReads, readSample{lat: time.Millisecond, done: ph.writeFrom.Add(time.Duration(i) * time.Second)})
	}
	m := endToEnd(ph)
	for name, want := range map[string]float64{
		"setup_s": 1.1, "detect_s": 3, "update_s": 0.5, "peak_rss_mb": 77, "f1": 0.9,
		"read_rps": 1000, "read_p50_us": 1000.5, "read_p99_us": 1980,
		"update_docs_per_s": 2, // 4 acks, the last 2 s into the window
		"update_ack_p50_ms": 250,
	} {
		if got := m[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if m["read_p99_us"].Note != "" || m["read_p99_us"].N != 2000 {
		t.Errorf("p99 of 2000 samples is supported: %+v", m["read_p99_us"])
	}
	if got := percentileMetric([]float64{1, 2, 3}, 99); got.Note == "" || got.Value != 3 {
		t.Errorf("an under-sampled percentile must be flagged: %+v", got)
	}
}

func TestChecker(t *testing.T) {
	var c, other checker
	c.ok(nil)
	c.ok(errors.New("first"))
	for i := 0; i < 2*maxReasons; i++ {
		other.ok(errors.New("more"))
	}
	c.merge(&other)
	if c.attempted != 2+2*maxReasons || c.failed != 1+2*maxReasons || len(c.reasons) != maxReasons {
		t.Errorf("checker = %+v", c)
	}
	if c.reasons[0] != "first" {
		t.Errorf("first reason lost: %v", c.reasons)
	}
}

func TestSplit(t *testing.T) {
	w := &workload{batchShare: 0.5, readShare: 0.2, writeShare: 0.3}
	early := []readSample{{done: time.Unix(10, 0)}, {done: time.Unix(10, 1)}, {done: time.Unix(10, 2)}}
	// three completions in the first slice, none in the other three
	if got := sliceRate(early, time.Unix(10, 0), time.Unix(11, 0)); got != 0 {
		t.Errorf("sliceRate of a one-slice burst = %v, want the median slice (0)", got)
	}
	if got := sliceRate(early, time.Unix(10, 0), time.Unix(10, 0).Add(rateSlice)); got != 12 {
		t.Errorf("sliceRate over one slice = %v, want 12/s", got)
	}
	batch, read, write, warm := w.split(10)
	if batch != 5*time.Second || read != 2*time.Second || write != 3*time.Second || warm != time.Second {
		t.Errorf("split(10) = %v %v %v %v", batch, read, write, warm)
	}
}

func TestPairLines(t *testing.T) {
	stderr := "stage x\npair /a <-> /b sim=0.900\ndogmatix: warning\npair /c <-> /d sim=0.700\n"
	if got, want := string(pairLines([]byte(stderr))), "pair /a <-> /b sim=0.900\npair /c <-> /d sim=0.700\n"; got != want {
		t.Errorf("pairLines = %q, want %q", got, want)
	}
	want := rendered{xml: []byte("<x/>"), pairs: []byte("pair /a <-> /b sim=0.900\n")}
	if err := want.matches(&procResult{stdout: []byte("<x/>"), stderr: []byte("pair /a <-> /b sim=0.900\n")}); err != nil {
		t.Error(err)
	}
	if err := want.matches(&procResult{stdout: []byte("<y/>"), stderr: want.pairs}); err == nil {
		t.Error("differing clusters accepted")
	}
	if err := want.matches(&procResult{stdout: want.xml}); err == nil {
		t.Error("missing pairs accepted")
	}
}
