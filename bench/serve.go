package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/workgen"
	"repro/internal/api"
	"repro/internal/api/client"
)

// readSample is one completed read request.
type readSample struct {
	class workgen.Class
	lat   time.Duration
	done  time.Time
}

// clusterView is /v1/clusters at one epoch, indexed for lookups.
type clusterView struct {
	epoch int64
	of    map[int32]int // candidate ID -> cluster index
}

// verifier checks read answers against the daemon's own clustering.
// Readers share it; the writer advances `acked` so readers know when
// their view of the clustering has been overtaken.
type verifier struct {
	cl    *client.Client
	view  atomic.Pointer[clusterView]
	acked atomic.Int64 // highest update epoch a writer has seen acknowledged
}

func newVerifier(ctx context.Context, cl *client.Client) (*verifier, error) {
	v := &verifier{cl: cl}
	if _, err := v.refresh(ctx); err != nil {
		return nil, err
	}
	return v, nil
}

// refresh fetches /v1/clusters and publishes it as the current view.
func (v *verifier) refresh(ctx context.Context) (*clusterView, error) {
	resp, err := v.cl.Clusters(ctx)
	if err != nil {
		return nil, fmt.Errorf("GET /v1/clusters: %w", err)
	}
	cv := &clusterView{epoch: resp.Epoch, of: map[int32]int{}}
	for ci, c := range resp.Clusters {
		for _, m := range c.Members {
			cv.of[m.ID] = ci
		}
	}
	v.view.Store(cv)
	return cv, nil
}

// agrees checks a /v1/duplicates answer against a clustering view:
// the object is the one asked for and live, its cluster index is the
// view's, every detected partner sits in that cluster, and it has a
// detected partner exactly when it is clustered.
func agrees(id int32, d *api.DuplicatesResponse, cv *clusterView) error {
	if d.Object.ID != id {
		return fmt.Errorf("duplicates/%d answered for object %d", id, d.Object.ID)
	}
	if !d.Live {
		return fmt.Errorf("duplicates/%d: a never-removed object reported not live", id)
	}
	want, clustered := cv.of[id]
	if !clustered {
		want = -1
	}
	if d.Cluster != want {
		return fmt.Errorf("duplicates/%d: cluster %d, /v1/clusters at epoch %d says %d", id, d.Cluster, cv.epoch, want)
	}
	detected := 0
	for _, p := range d.Pairs {
		if p.Possible {
			continue
		}
		detected++
		if ci, ok := cv.of[p.Other.ID]; !ok || ci != want {
			return fmt.Errorf("duplicates/%d: partner %d is not in cluster %d at epoch %d", id, p.Other.ID, want, cv.epoch)
		}
	}
	if (detected > 0) != clustered {
		return fmt.Errorf("duplicates/%d: %d detected pairs but clustered=%v at epoch %d", id, detected, clustered, cv.epoch)
	}
	return nil
}

// checkDuplicates verifies one answer. The answer carries no epoch, so
// a disagreement with the cached view is only a failure once it is
// confirmed against a clustering fetched at one stable epoch around a
// repeat of the request.
func (v *verifier) checkDuplicates(ctx context.Context, id int32, d *api.DuplicatesResponse) error {
	first := agrees(id, d, v.view.Load())
	if first == nil {
		return nil
	}
	for try := 0; try < 5; try++ {
		before, err := v.refresh(ctx)
		if err != nil {
			return err
		}
		again, err := v.cl.Duplicates(ctx, id)
		if err != nil {
			return fmt.Errorf("GET /v1/duplicates/%d: %w", id, err)
		}
		after, err := v.refresh(ctx)
		if err != nil {
			return err
		}
		if before.epoch == after.epoch {
			return agrees(id, again, after)
		}
	}
	return first
}

// checkSimilarHit: the queried value is in the vocabulary, so the
// answer must contain it at distance 0.
func checkSimilarHit(req workgen.Request, s *api.SimilarResponse) error {
	for _, m := range s.Matches {
		if m.Value == req.Value && m.Dist == 0 {
			return nil
		}
	}
	return fmt.Errorf("similar %s=%q: %d matches, none is the queried value at distance 0", req.Type, req.Value, len(s.Matches))
}

// reader is one closed-loop read client: it sends its stream's next
// request only after the previous reply arrived and was checked.
type reader struct {
	cl      *client.Client
	stream  *workgen.Stream
	v       *verifier
	samples []readSample
	chk     checker
}

// run issues requests until the deadline passes. Requests completed
// before `from` are warm-up: checked, but not sampled.
func (r *reader) run(ctx context.Context, from, until time.Time) {
	for time.Now().Before(until) {
		req := r.stream.Next()
		if req.Class == workgen.Duplicates {
			// Catch the view up with acknowledged updates outside the
			// timed call.
			if cv := r.v.view.Load(); cv.epoch < r.v.acked.Load() {
				if _, err := r.v.refresh(ctx); err != nil {
					r.chk.ok(err)
					continue
				}
			}
		}
		begin := time.Now()
		err := r.issue(ctx, req)
		done := time.Now()
		r.chk.ok(err)
		if err == nil && !done.Before(from) && !done.After(until) {
			r.samples = append(r.samples, readSample{class: req.Class, lat: done.Sub(begin), done: done})
		}
	}
}

// issue sends one request and checks its answer. The check of a
// duplicates answer can cost extra requests when the clustering moved;
// that time lands in this request's latency only in that rare case.
func (r *reader) issue(ctx context.Context, req workgen.Request) error {
	switch req.Class {
	case workgen.Duplicates:
		d, err := r.cl.Duplicates(ctx, req.ID)
		if err != nil {
			return fmt.Errorf("GET /v1/duplicates/%d: %w", req.ID, err)
		}
		return r.v.checkDuplicates(ctx, req.ID, d)
	default:
		s, err := r.cl.Similar(ctx, req.Type, req.Value)
		if err != nil {
			return fmt.Errorf("GET /v1/similar %s=%q: %w", req.Type, req.Value, err)
		}
		if req.Class == workgen.SimilarHit {
			return checkSimilarHit(req, s)
		}
		return nil
	}
}

// readWindow runs n closed-loop readers from now until warm+length
// have passed and returns them with the measured window's bounds.
func readWindow(ctx context.Context, url string, sched *workgen.Schedule, v *verifier, n int, warm, length time.Duration) ([]*reader, time.Time, time.Time) {
	from := time.Now().Add(warm)
	until := from.Add(length)
	readers := make([]*reader, n)
	var wg sync.WaitGroup
	for i := range readers {
		readers[i] = &reader{cl: newAPIClient(url), stream: sched.Client(i), v: v}
		wg.Add(1)
		go func(r *reader) {
			defer wg.Done()
			r.run(ctx, from, until)
		}(readers[i])
	}
	wg.Wait()
	return readers, from, until
}

// submitted is one submission the writer sent, with what became of it.
type submitted struct {
	sub   workgen.Submission
	acked bool
}

// ackSample is one acknowledged submission.
type ackSample struct {
	lat  time.Duration
	done time.Time
}

// writer is the closed-loop writer: one single-object document per
// POST /v1/updates, the next one only after the previous ack.
type writer struct {
	cl      *client.Client
	subs    *workgen.Submissions
	v       *verifier
	durable bool // the daemon persists: every ack must say durable
	live    int  // live objects the daemon should report after the next ack
	epoch   int64
	sent    []submitted
	samples []ackSample
	chk     checker
}

// run submits until the deadline passes; the submission in flight at
// the deadline is waited for and checked, but not sampled.
func (w *writer) run(ctx context.Context, until time.Time) {
	for time.Now().Before(until) {
		sub := w.subs.Next()
		req := &api.UpdateRequest{
			Add:    []api.UpdateDoc{{Name: sub.Name, XML: string(sub.XML)}},
			Remove: sub.Remove,
		}
		begin := time.Now()
		resp, err := w.cl.Submit(ctx, req)
		done := time.Now()
		if err != nil {
			w.sent = append(w.sent, submitted{sub: sub})
			w.chk.ok(fmt.Errorf("POST /v1/updates #%d: %w", sub.Index, err))
			continue
		}
		w.sent = append(w.sent, submitted{sub: sub, acked: true})
		w.live += 1 - len(sub.Remove)
		w.epoch++
		w.chk.ok(w.checkAck(sub, resp))
		w.v.acked.Store(resp.Epoch)
		if !done.After(until) {
			w.samples = append(w.samples, ackSample{lat: done.Sub(begin), done: done})
		}
	}
}

func (w *writer) checkAck(sub workgen.Submission, resp *api.UpdateResponse) error {
	switch {
	case w.durable && !resp.Durable:
		return fmt.Errorf("ack #%d: durable=false from a persisting daemon", sub.Index)
	case resp.Epoch != w.epoch:
		return fmt.Errorf("ack #%d: epoch %d, want %d", sub.Index, resp.Epoch, w.epoch)
	case resp.Live != w.live:
		return fmt.Errorf("ack #%d: live=%d, want %d", sub.Index, resp.Live, w.live)
	}
	return nil
}

// checkDurable verifies persisted state through a restarted daemon:
// every acknowledged and not later removed submission is found by its
// identifying value, every removed one is not, and the live count is
// the one the last ack reported.
func (w *writer) checkDurable(ctx context.Context, cl *client.Client, idType string, chk *checker) {
	removed := map[int]bool{}
	for _, s := range w.sent {
		if s.acked && s.sub.RemovedIndex >= 0 {
			removed[s.sub.RemovedIndex] = true
		}
	}
	for _, s := range w.sent {
		if !s.acked {
			continue
		}
		resp, err := cl.Similar(ctx, idType, s.sub.Key)
		if err != nil {
			chk.ok(fmt.Errorf("after restart: GET /v1/similar %s=%s: %w", idType, s.sub.Key, err))
			continue
		}
		found := false
		for _, m := range resp.Matches {
			found = found || (m.Value == s.sub.Key && m.Dist == 0)
		}
		switch {
		case removed[s.sub.Index] && found:
			chk.ok(fmt.Errorf("after restart: removed submission #%d (%s) is still indexed", s.sub.Index, s.sub.Key))
		case !removed[s.sub.Index] && !found:
			chk.ok(fmt.Errorf("after restart: acknowledged submission #%d (%s) is gone", s.sub.Index, s.sub.Key))
		default:
			chk.ok(nil)
		}
	}
	cv, err := cl.Clusters(ctx)
	if err == nil && cv.Live != w.live {
		err = fmt.Errorf("after restart: live=%d, the last ack said %d", cv.Live, w.live)
	}
	chk.ok(err)
}
