package api_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/api"
	"repro/internal/api/client"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/od"
)

// TestDaemonParallelReaders hammers the lock-free read path while a
// writer streams update batches: no reader may ever observe a torn
// view. Every clusters response a reader fetches must canonicalize to
// exactly the clustering the writer published at that epoch, and the
// epochs each reader observes must be monotonic. Run under -race this
// also proves the view swap itself is sound.
func TestDaemonParallelReaders(t *testing.T) {
	fix := newFixture(t)
	cfg := fix.cfg
	cfg.Incremental = true
	svc := startService(t, fix, cfg, api.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Five single-source batches of four discs each, so readers see six
	// distinct epochs while the writer runs.
	cds := datagen.FreeDB(60, 2031)
	var batches [][]api.UpdateDoc
	for b := 0; b < 5; b++ {
		doc := xmlBytes(t, datagen.FreeDBToXML(cds[40+4*b:44+4*b]))
		batches = append(batches, []api.UpdateDoc{{Name: fmt.Sprintf("batch-%d", b), XML: string(doc)}})
	}

	// The writer records the authoritative canonical clustering per
	// epoch right after each ack; epoch 0 is the boot view.
	wantByEpoch := sync.Map{}
	wantByEpoch.Store(int64(0), canonResultClusters(svc.Result()))

	var done atomic.Bool
	const readers = 8
	type seen struct {
		epoch int64
		canon string
	}
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(ts.URL)
			ctx := context.Background()
			last := int64(-1)
			var log []seen
			for !done.Load() {
				resp, err := cl.Clusters(ctx)
				if err != nil {
					errs <- err
					return
				}
				if resp.Epoch < last {
					errs <- fmt.Errorf("epoch went backwards: %d after %d", resp.Epoch, last)
					return
				}
				last = resp.Epoch
				log = append(log, seen{resp.Epoch, canonClusters(resp)})

				// The per-candidate endpoint must also come from one
				// coherent view.
				d, err := cl.Duplicates(ctx, 0)
				if err != nil {
					errs <- err
					return
				}
				if d.Object.ID != 0 || d.Object.Path == "" {
					errs <- fmt.Errorf("torn duplicates response: %+v", d.Object)
					return
				}
			}
			// Verify against the writer's log once it is complete.
			for _, s := range log {
				want, ok := wantByEpoch.Load(s.epoch)
				if !ok {
					errs <- fmt.Errorf("served epoch %d the writer never published", s.epoch)
					return
				}
				if s.canon != want.(string) {
					errs <- fmt.Errorf("torn read at epoch %d:\n got: %s\nwant: %s", s.epoch, s.canon, want)
					return
				}
			}
			errs <- nil
		}()
	}

	cl := client.New(ts.URL)
	for i, docs := range batches {
		resp, err := cl.Submit(context.Background(), &api.UpdateRequest{Add: docs})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		wantByEpoch.Store(resp.Epoch, canonResultClusters(svc.Result()))
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestDaemonDrainLosesNothing pins the shutdown contract: submissions
// racing a drain either get applied and acknowledged, or get a typed
// retryable rejection — and the final state contains exactly the
// acknowledged ones. An ack is a promise that survives SIGTERM.
func TestDaemonDrainLosesNothing(t *testing.T) {
	fix := newFixture(t)
	cfg := fix.cfg
	cfg.Incremental = true
	svc := startService(t, fix, cfg, api.Config{QueueDepth: 4})
	initial := len(svc.Result().Candidates)

	cds := datagen.FreeDB(80, 2032)
	const writers = 12
	results := make(chan error, writers)
	var acked atomic.Int64
	var start, ready sync.WaitGroup
	start.Add(1)
	for w := 0; w < writers; w++ {
		ready.Add(1)
		go func(w int) {
			doc := xmlBytes(t, datagen.FreeDBToXML(cds[60+w:61+w]))
			in := []core.SourceInput{docInput(t, fmt.Sprintf("drain-%d", w), doc)}
			ready.Done()
			start.Wait()
			resp, err := svc.Submit(context.Background(), in, nil)
			if err == nil {
				if resp == nil || resp.Epoch < 1 {
					results <- fmt.Errorf("writer %d: ack without epoch: %+v", w, resp)
					return
				}
				acked.Add(1)
				results <- nil
				return
			}
			var apiErr *api.Error
			if !errors.As(err, &apiErr) {
				results <- fmt.Errorf("writer %d: untyped rejection %v", w, err)
				return
			}
			if apiErr.Code != api.CodeDraining && apiErr.Code != api.CodeQueueFull {
				results <- fmt.Errorf("writer %d: rejection code %q", w, apiErr.Code)
				return
			}
			results <- nil
		}(w)
	}
	ready.Wait()
	start.Done() // all writers fire at once, racing the drain below
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		if err := <-results; err != nil {
			t.Error(err)
		}
	}

	// Exactly the acknowledged single-disc batches are in the final
	// state — nothing acked was dropped, nothing unacked slipped in.
	final := svc.Result()
	if got, want := len(final.Candidates), initial+int(acked.Load()); got != want {
		t.Errorf("final corpus has %d candidates, %d acked batches promise %d", got, acked.Load(), want)
	}

	// After the drain the daemon answers reads but refuses mutations.
	if _, err := svc.Submit(context.Background(), []core.SourceInput{fix.input(t, 1)}, nil); !isCode(err, api.CodeDraining, 503) {
		t.Errorf("post-drain submit err = %v, want 503 draining", err)
	}
}

// faultyMember wraps a federation member and fails AddAfterFinalize on
// demand — the shape of a member crashing mid-update.
type faultyMember struct {
	od.Partition
	down *atomic.Bool
}

func (f *faultyMember) AddAfterFinalize(ods []*od.OD) error {
	if f.down.Load() {
		return errors.New("injected: member unreachable")
	}
	return f.Partition.AddAfterFinalize(ods)
}

// TestDaemonPartitionFailure pins the distributed fault contract: a
// member failing during an update surfaces as a 503 with the typed
// partition code and index, the daemon latches mutations shut, and
// reads keep serving the last good epoch.
func TestDaemonPartitionFailure(t *testing.T) {
	fix := newFixture(t)
	var down atomic.Bool
	const faultyIdx = 1

	cfg := fix.cfg
	cfg.Incremental = true
	cfg.NewStore = func() od.Store {
		parts := make([]od.Partition, 3)
		for i := range parts {
			var p od.Partition = od.LocalPartition{S: od.NewMemStore()}
			if i == faultyIdx {
				p = &faultyMember{Partition: p, down: &down}
			}
			parts[i] = p
		}
		return od.NewPartitionedStore(parts, 0)
	}
	det, err := core.NewDetector(fix.mapping, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res0, err := det.DetectInputs("DISC", fix.input(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := api.New(api.Config{Detector: det, Result: res0})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	// A healthy update applies.
	if r := submitBatch(t, cl, fix, 1, nil); r.Epoch != 1 {
		t.Fatalf("healthy dist update = %+v", r)
	}
	good := svc.Result()
	goodCanon := canonResultClusters(good)

	// Member goes down; the next update must fail typed, not partial.
	down.Store(true)
	_, err = cl.Submit(ctx, &api.UpdateRequest{Add: []api.UpdateDoc{{Name: "src-2", XML: string(fix.docs[2])}}})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Status != 503 || apiErr.Code != api.CodePartitionUnavailable {
		t.Fatalf("update on downed member err = %v, want 503 partition_unavailable", err)
	}
	if apiErr.Partition != faultyIdx {
		t.Errorf("error names partition %d, faulty member is %d", apiErr.Partition, faultyIdx)
	}

	// Mutations are latched shut; the failure does not clear itself.
	down.Store(false)
	if _, err := cl.Submit(ctx, &api.UpdateRequest{Add: []api.UpdateDoc{{Name: "retry", XML: string(fix.docs[2])}}}); !isCode(err, api.CodePartitionUnavailable, 503) {
		t.Errorf("post-failure submit err = %v, want latched 503", err)
	}

	// Reads still serve the last good epoch from the immutable view.
	c, err := cl.Clusters(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c.Epoch != 1 || canonClusters(c) != goodCanon {
		t.Errorf("post-failure reads diverged from the last good view (epoch %d)", c.Epoch)
	}
	h, err := cl.Health(ctx)
	if err != nil || h.Status != "degraded" {
		t.Errorf("health after member failure = %+v, %v, want degraded", h, err)
	}
}
