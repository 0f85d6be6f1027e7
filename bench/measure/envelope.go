package measure

import (
	"encoding/json"
	"fmt"
	"os"
)

// Metric is one named figure of a run: the value as measured, its
// unit, and the number of samples it was computed from.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	// Layer is true for per-layer metrics (traced pass), false for
	// end-to-end metrics (untraced processes).
	Layer bool `json:"layer,omitempty"`
	// Exact marks a count that must repeat exactly between two runs of
	// the same code and seed.
	Exact bool `json:"exact,omitempty"`
	// Note flags a figure the sample does not fully support, e.g. a
	// percentile with fewer than MinBeyond samples beyond it.
	Note string `json:"note,omitempty"`
}

// Run is the result of one workload run.
type Run struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Index    int     `json:"index"`   // repetition within the invocation
	Seconds  float64 `json:"seconds"` // requested length of the measured part
	// Scale holds the workload's size parameters (objects, duplicate
	// share, clients, repetitions) so two envelopes can be told apart.
	Scale map[string]float64 `json:"scale"`
	// Windows holds the measured-window lengths actually observed, in
	// seconds, by phase name.
	Windows   map[string]float64 `json:"windows_s"`
	Metrics   map[string]Metric  `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Failures  []string           `json:"failures,omitempty"` // first few failed checks
	TraceFile string             `json:"trace_file,omitempty"`
	WallS     float64            `json:"wall_s"`
}

// FailRatio is (failed + refused + wrong-answer operations) / attempted.
func (r *Run) FailRatio() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// Envelope is the one artifact shape of the benchmark: where and how
// the numbers were taken, then every run.
type Envelope struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Seed       int64  `json:"seed"`
	Started    string `json:"started"`
	// PacedLoops is the number of open-loop (paced) generators; every
	// loop of this benchmark is closed, so it is 0 and the lateness
	// field stays null. Both are present so a later paced workload has
	// its place in the envelope.
	PacedLoops          int      `json:"paced_loops"`
	GeneratorLatenessMS *float64 `json:"generator_lateness_ms"`
	WallS               float64  `json:"wall_s"` // whole invocation
	Runs                []Run    `json:"runs"`
}

// WriteFile writes the envelope as indented JSON.
func (e *Envelope) WriteFile(path string) error {
	buf, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ReadEnvelope loads an envelope written by WriteFile.
func ReadEnvelope(path string) (*Envelope, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e Envelope
	if err := json.Unmarshal(buf, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &e, nil
}
