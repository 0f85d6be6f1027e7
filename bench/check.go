package main

import (
	"bytes"
	"fmt"

	"repro/bench/workgen"
	"repro/internal/core"
	"repro/internal/evalmetrics"
	"repro/internal/heuristics"
	"repro/internal/xmltree"
)

// checker counts the operations a run attempted and the ones that
// failed an output check, keeping the first few reasons for the report.
type checker struct {
	attempted, failed int
	reasons           []string
}

const maxReasons = 8

// ok records one attempted operation; a non-nil err counts it failed.
func (c *checker) ok(err error) bool {
	c.attempted++
	if err == nil {
		return true
	}
	c.failed++
	if len(c.reasons) < maxReasons {
		c.reasons = append(c.reasons, err.Error())
	}
	return false
}

// merge folds another goroutine's counts in.
func (c *checker) merge(o *checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, r := range o.reasons {
		if len(c.reasons) < maxReasons {
			c.reasons = append(c.reasons, r)
		}
	}
}

// coreConfig is the workload's duplicate definition as the library
// takes it — what detectFlags hands the programs on the command line.
func (w *workload) coreConfig() (core.Config, error) {
	spec := w.heuristic
	if spec == "" {
		spec = "kd:6" // the programs' default
	}
	h, err := heuristics.ParseSpec(spec)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{Heuristic: h, UseFilter: w.filter, Workers: w.workers}, nil
}

// parseCorpus materializes the corpus documents as pipeline inputs.
func parseCorpus(c *workgen.Corpus) ([]core.SourceInput, error) {
	var inputs []core.SourceInput
	for _, f := range c.Files {
		src, err := parseSource(f)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, src)
	}
	return inputs, nil
}

func parseSource(f workgen.File) (core.Source, error) {
	doc, err := xmltree.Parse(bytes.NewReader(f.Data))
	if err != nil {
		return core.Source{}, fmt.Errorf("%s: %w", f.Name, err)
	}
	return core.Source{Name: f.Name, Doc: doc}, nil
}

// reference is the repo's own parity contract applied to a workload:
// an in-process MemStore run over the same inputs, whose output every
// process under test has to reproduce byte for byte whatever backend,
// ingest path or worker count it used.
type reference struct {
	det *core.Detector
	res *core.Result
}

// newReference runs the workload's detection in process on MemStore.
func newReference(w *workload, c *workgen.Corpus) (*reference, error) {
	cfg, err := w.coreConfig()
	if err != nil {
		return nil, err
	}
	mapping, err := core.ParseMapping(bytes.NewReader(c.Mapping))
	if err != nil {
		return nil, err
	}
	det, err := core.NewDetector(mapping, cfg)
	if err != nil {
		return nil, err
	}
	inputs, err := parseCorpus(c)
	if err != nil {
		return nil, err
	}
	res, err := det.DetectInputs(c.Type, inputs...)
	if err != nil {
		return nil, err
	}
	return &reference{det: det, res: res}, nil
}

// update applies the batch to the reference state in process and
// returns the updated reference.
func (r *reference) update(b workgen.UpdateBatch) (*reference, error) {
	src, err := parseSource(b.Doc)
	if err != nil {
		return nil, err
	}
	res, err := r.det.Update(r.res, core.UpdateBatch{Add: []core.SourceInput{src}, Remove: b.RemovedIDs})
	if err != nil {
		return nil, err
	}
	return &reference{det: r.det, res: res}, nil
}

// rendered is a detection result the way the CLI prints it: the
// dupcluster XML on stdout and, under -pairs, one line per detected
// pair on stderr.
type rendered struct {
	xml   []byte
	pairs []byte
}

func (r *reference) render() (rendered, error) {
	var out rendered
	var buf bytes.Buffer
	if err := r.res.WriteXML(&buf); err != nil {
		return out, err
	}
	out.xml = buf.Bytes()
	var pairs bytes.Buffer
	for _, p := range r.res.Pairs {
		fmt.Fprintf(&pairs, "pair %s <-> %s sim=%.3f\n",
			r.res.Candidates[p.I].Path, r.res.Candidates[p.J].Path, p.Score)
	}
	out.pairs = pairs.Bytes()
	return out, nil
}

// matches checks one CLI process's output against the reference: the
// same clusters and the same pair set with the same scores.
func (want rendered) matches(p *procResult) error {
	if !bytes.Equal(p.stdout, want.xml) {
		return fmt.Errorf("dupcluster output differs from the in-process MemStore run (%d vs %d bytes)", len(p.stdout), len(want.xml))
	}
	if got := pairLines(p.stderr); !bytes.Equal(got, want.pairs) {
		return fmt.Errorf("pair set differs from the in-process MemStore run (%d vs %d bytes of pair lines)", len(got), len(want.pairs))
	}
	return nil
}

// pairLines keeps the -pairs lines of a CLI stderr and drops the rest
// (submit warnings, stage lines).
func pairLines(stderr []byte) []byte {
	var out bytes.Buffer
	for _, line := range bytes.SplitAfter(stderr, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("pair ")) {
			out.Write(line)
		}
	}
	return out.Bytes()
}

// f1 is the pairwise F1 of the reference's detected pairs against the
// gold pairs. Because every process output is checked identical to the
// reference rendering, this is the F1 of the process's output.
func (r *reference) f1(gold [][2]int32) float64 {
	return evalmetrics.PairsPR(
		evalmetrics.NewPairSet(r.res.PairSet()...),
		evalmetrics.NewPairSet(gold...),
	).F1()
}
