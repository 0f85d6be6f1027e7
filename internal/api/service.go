package api

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/od"
	"repro/internal/xsd"
)

// Config assembles a Service around one adopted or freshly built
// detection result.
type Config struct {
	// Detector runs the coalesced Update calls. It must carry the same
	// mapping/thresholds the Result was produced with, and
	// Config.Incremental when the daemon should keep replay traces.
	Detector *core.Detector
	// Result is the state served at startup: a fresh DetectInputs run,
	// or core.Adopt over a reopened snapshot.
	Result *core.Result
	// Schema, when non-nil, is attached to every document POSTed to
	// /v1/updates (mirrors the CLI's -xsd).
	Schema *xsd.Schema
	// PipelinePersists declares that the Detector's own snapshot stage
	// persists each update (Config.Snapshot.Save on a disk store), so
	// acks report Persisted: the batch reached disk before the ack.
	PipelinePersists bool
	// QueueDepth bounds the admission queue: submissions beyond it are
	// rejected with CodeQueueFull instead of buffering unboundedly.
	// Defaults to 16.
	QueueDepth int
}

type submission struct {
	add    []core.SourceInput
	remove []string
	done   chan applyOutcome
}

type applyOutcome struct {
	resp *UpdateResponse
	err  *Error
}

// view is one immutable published state: the Result plus everything
// the read endpoints need precomputed, so queries never touch the
// (mutable, shared) store and never take a lock.
type view struct {
	epoch   int64
	res     *core.Result
	live    int
	removed map[int32]bool
	pairsOf map[int32][]PairHit
	cluster []int // candidate ID -> cluster index, -1 when none
}

// Service serves one detection result over HTTP and funnels update
// batches through a single applier goroutine. Reads load the current
// view from an atomic pointer — Update builds a fresh Result (with its
// own Candidates slice) and never mutates a published one, so readers
// are torn-write-free by construction. The store itself IS shared and
// mutated in place by Update; the endpoints that query it
// (/v1/similar, /metrics cache counters) take storeMu.RLock against
// the applier's write lock.
type Service struct {
	cfg   Config
	start time.Time

	view atomic.Pointer[view]

	storeMu sync.RWMutex // store reads (similar/metrics) vs Update mutations

	mu       sync.Mutex // admission gate: draining/failed + queue send
	draining bool
	failed   *Error

	queue chan *submission
	stop  chan struct{}
	done  chan struct{}

	epoch atomic.Int64

	qDuplicates atomic.Uint64
	qClusters   atomic.Uint64
	qSimilar    atomic.Uint64

	updAccepted  atomic.Uint64
	updApplied   atomic.Uint64
	updRejected  atomic.Uint64
	updBatches   atomic.Uint64
	updCoalesced atomic.Uint64
}

// New builds the service and starts its applier goroutine. Call
// Shutdown to drain and stop it.
func New(cfg Config) (*Service, error) {
	if cfg.Detector == nil {
		return nil, fmt.Errorf("api: Config.Detector is required")
	}
	if cfg.Result == nil {
		return nil, fmt.Errorf("api: Config.Result is required")
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("api: QueueDepth %d < 1", cfg.QueueDepth)
	}
	s := &Service{
		cfg:   cfg,
		start: time.Now(),
		queue: make(chan *submission, cfg.QueueDepth),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.view.Store(buildView(0, cfg.Result))
	go s.applier()
	return s, nil
}

// Result returns the currently published result (the last applied
// update, or the initial one).
func (s *Service) Result() *core.Result { return s.view.Load().res }

// status reports the health string under the admission gate's rules.
func (s *Service) status() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.draining:
		return "draining"
	case s.failed != nil:
		return "degraded"
	default:
		return "ok"
	}
}

// Submit queues one update batch and blocks until it is applied (and
// persisted, when the daemon persists) or rejected. A ctx cancellation
// abandons the wait but NOT the batch: once admitted, the batch still
// applies and survives a graceful drain.
func (s *Service) Submit(ctx context.Context, add []core.SourceInput, remove []string) (*UpdateResponse, error) {
	if len(add) == 0 && len(remove) == 0 {
		return nil, &Error{Status: 400, Code: CodeBadRequest, Message: "empty update batch: nothing to add or remove"}
	}
	sub := &submission{add: add, remove: remove, done: make(chan applyOutcome, 1)}
	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		s.updRejected.Add(1)
		return nil, err
	}
	if s.draining {
		s.mu.Unlock()
		s.updRejected.Add(1)
		return nil, &Error{Status: 503, Code: CodeDraining, Message: "service is draining; retry against the restarted daemon", RetryAfter: 1}
	}
	select {
	case s.queue <- sub:
		s.updAccepted.Add(1)
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.updRejected.Add(1)
		return nil, &Error{Status: 503, Code: CodeQueueFull, Message: fmt.Sprintf("update queue full (%d pending)", cap(s.queue)), RetryAfter: 1}
	}
	select {
	case out := <-sub.done:
		if out.err != nil {
			return nil, out.err
		}
		return out.resp, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Shutdown drains gracefully: new submissions are rejected with
// CodeDraining, every batch admitted before the gate closed is applied
// (and persisted) so its waiting client gets a real ack, then the
// applier exits. Safe to call more than once.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.stop)
	}
	s.mu.Unlock()
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// applier is the single mutation goroutine: it serializes every
// Detector.Update, coalescing whatever queued while the previous run
// was busy into the next one.
func (s *Service) applier() {
	defer close(s.done)
	for {
		var first *submission
		select {
		case first = <-s.queue:
		case <-s.stop:
			// Drain: everything in the queue was admitted before the
			// gate closed and has a client blocked on its ack.
			if subs := s.drainQueue(nil); len(subs) > 0 {
				s.apply(subs)
			}
			return
		}
		s.apply(s.drainQueue([]*submission{first}))
	}
}

// drainQueue appends every immediately available submission to subs.
func (s *Service) drainQueue(subs []*submission) []*submission {
	for {
		select {
		case sub := <-s.queue:
			subs = append(subs, sub)
		default:
			return subs
		}
	}
}

// apply folds subs into one UpdateBatch, runs Update under the store
// write lock, persists, publishes the new view and acknowledges every
// submission. A submission whose removals do not resolve is rejected
// individually without failing the others; a failed Update poisons all
// further mutations (queries keep serving the last view).
func (s *Service) apply(subs []*submission) {
	v := s.view.Load()
	var batch core.UpdateBatch
	scheduled := make(map[int32]bool)
	applied := subs[:0]
	for _, sub := range subs {
		ids, err := v.res.ResolveRemovals(sub.remove)
		if err != nil {
			s.updRejected.Add(1)
			sub.done <- applyOutcome{err: &Error{Status: 400, Code: CodeBadRequest, Message: err.Error()}}
			continue
		}
		for _, id := range ids {
			// Two coalesced submissions may remove the same object;
			// dedupe so Update does not reject the merged batch, and
			// both acks honestly report the removal applied.
			if !scheduled[id] {
				scheduled[id] = true
				batch.Remove = append(batch.Remove, id)
			}
		}
		batch.Add = append(batch.Add, sub.add...)
		applied = append(applied, sub)
	}
	if len(applied) == 0 {
		return
	}

	s.storeMu.Lock()
	res, err := s.cfg.Detector.Update(v.res, batch)
	s.storeMu.Unlock()
	if err != nil {
		serr := updateError(err)
		s.failMutations(serr)
		for _, sub := range applied {
			s.updRejected.Add(1)
			sub.done <- applyOutcome{err: serr}
		}
		return
	}

	epoch := s.publish(res)
	nv := s.view.Load()
	resp := &UpdateResponse{
		Epoch:       epoch,
		Coalesced:   len(applied),
		Candidates:  len(res.Candidates),
		Live:        nv.live,
		Pairs:       len(res.Pairs),
		Clusters:    len(res.Clusters),
		Compared:    res.Stats.Compared,
		Patched:     res.Stats.Patched,
		TraceSource: res.Stats.TraceSource,
		Persisted:   s.cfg.PipelinePersists,
		Durable:     s.cfg.PipelinePersists,
	}
	s.updBatches.Add(1)
	s.updApplied.Add(uint64(len(applied)))
	if len(applied) > 1 {
		s.updCoalesced.Add(uint64(len(applied) - 1))
	}
	for _, sub := range applied {
		sub.done <- applyOutcome{resp: resp}
	}
}

// publish swaps in a fresh view over res and returns its epoch.
func (s *Service) publish(res *core.Result) int64 {
	epoch := s.epoch.Add(1)
	s.view.Store(buildView(epoch, res))
	return epoch
}

// failMutations latches the mutation path closed. Reads keep serving.
func (s *Service) failMutations(err *Error) {
	s.mu.Lock()
	if s.failed == nil {
		s.failed = err
	}
	s.mu.Unlock()
}

// updateError classifies a Detector.Update failure. A partition panic
// recovered by the pipeline surfaces as a wrapped
// *od.PartitionUnavailableError — the typed 503 the distributed
// daemon's clients retry against another coordinator.
func updateError(err error) *Error {
	var pe *od.PartitionUnavailableError
	if errors.As(err, &pe) {
		return &Error{
			Status:     503,
			Code:       CodePartitionUnavailable,
			Message:    err.Error(),
			Partition:  pe.Partition,
			RetryAfter: 5,
		}
	}
	return &Error{Status: 500, Code: CodeUpdateFailed, Message: err.Error()}
}

// buildView precomputes everything the read endpoints answer from, so
// they never chase the store. Update returns a Result with freshly
// copied Candidates/Pairs/Clusters slices, so holding res here keeps
// old views valid forever.
func buildView(epoch int64, res *core.Result) *view {
	v := &view{
		epoch:   epoch,
		res:     res,
		removed: make(map[int32]bool, len(res.Removed)),
		pairsOf: make(map[int32][]PairHit),
		cluster: make([]int, len(res.Candidates)),
	}
	for _, id := range res.Removed {
		v.removed[id] = true
	}
	v.live = len(res.Candidates) - len(v.removed)
	for i := range v.cluster {
		v.cluster[i] = -1
	}
	for ci, members := range res.Clusters {
		for _, id := range members {
			v.cluster[id] = ci
		}
	}
	add := func(p core.Pair, possible bool) {
		v.pairsOf[p.I] = append(v.pairsOf[p.I], PairHit{Other: v.ref(p.J), Score: p.Score, Possible: possible})
		v.pairsOf[p.J] = append(v.pairsOf[p.J], PairHit{Other: v.ref(p.I), Score: p.Score, Possible: possible})
	}
	for _, p := range res.Pairs {
		add(p, false)
	}
	for _, p := range res.PossiblePairs {
		add(p, true)
	}
	for _, hits := range v.pairsOf {
		sort.SliceStable(hits, func(i, j int) bool {
			if hits[i].Possible != hits[j].Possible {
				return !hits[i].Possible
			}
			return hits[i].Other.ID < hits[j].Other.ID
		})
	}
	return v
}

func (v *view) ref(id int32) ObjectRef {
	c := v.res.Candidates[id]
	return ObjectRef{ID: id, Path: c.Path, Source: c.Source}
}
