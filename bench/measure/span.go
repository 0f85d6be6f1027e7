package measure

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of the traced pass: a call into a layer's
// public function made from the benchmark's own files. Spans of one
// unit of work share Key — the run index on batch workloads, the
// request-key index on serve workloads — and name the span that
// caused them in Parent (-1 for a root).
type Span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Key     int64   `json:"key"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// Duration is the span's length in microseconds.
func (s Span) Duration() float64 { return s.EndUS - s.StartUS }

// Recorder keeps spans in memory until the run ends; nothing is
// written while work is being timed. It is safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewRecorder starts a recorder; span times are relative to this call.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Start opens a span and returns its ID for End and for children.
func (r *Recorder) Start(name string, parent int, key int64) int {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	us := float64(now) / float64(time.Microsecond)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Key: key, StartUS: us, EndUS: us})
	return id
}

// End closes the span and returns its duration.
func (r *Recorder) End(id int) time.Duration {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.EndUS = float64(now) / float64(time.Microsecond)
	return time.Duration(s.Duration() * float64(time.Microsecond))
}

// Time runs fn inside a span and returns the span's duration.
func (r *Recorder) Time(name string, parent int, key int64, fn func()) time.Duration {
	id := r.Start(name, parent, key)
	fn()
	return r.End(id)
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSON writes the recorded spans to path as one JSON array.
func (r *Recorder) WriteJSON(path string) error {
	buf, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// SelfTimes returns, per span ID, the span's duration minus the part
// of its interval that its direct children cover. Children that
// overlap each other (parallel member calls) are counted once, and a
// child reaching outside its parent is clipped to it.
func SelfTimes(spans []Span) map[int]float64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Duration() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals inside p.
func covered(p Span, kids []Span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
	total, hi := 0.0, p.StartUS
	for _, k := range kids {
		lo, end := k.StartUS, k.EndUS
		if lo < hi {
			lo = hi
		}
		if end > p.EndUS {
			end = p.EndUS
		}
		if end > lo {
			total += end - lo
			hi = end
		}
	}
	return total
}
