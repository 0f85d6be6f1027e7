package api_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/api"
	"repro/internal/api/client"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/heuristics"
	"repro/internal/od"
	"repro/internal/od/odrpc"
	"repro/internal/xmltree"
)

// fixture is the CD corpus every daemon test serves: an initial load
// and two update batches with cross-source duplicates, plus the
// removal specs the second batch carries (the CLI's SOURCE:path
// syntax, resolved by the daemon at apply time).
type fixture struct {
	mapping *core.Mapping
	cfg     core.Config // base config; tests add store/persistence
	docs    [3][]byte   // initial, batch1, batch2
	removes []string    // removal specs applied with batch2
	artist  string      // a live indexed value for /v1/similar
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	mapping := core.NewMapping()
	for typ, paths := range datagen.FreeDBMappingPaths() {
		mapping.MustAdd(typ, paths...)
	}
	cds := datagen.FreeDB(40, 2030)
	c0 := append(append([]datagen.CD(nil), cds[:20]...), cds[2], cds[7])
	c1 := append(append([]datagen.CD(nil), cds[20:30]...), cds[5], cds[11])
	c2 := append(append([]datagen.CD(nil), cds[30:40]...), cds[22], cds[1])
	return &fixture{
		mapping: mapping,
		cfg: core.Config{
			Heuristic:  heuristics.KClosestDescendants(6),
			ThetaTuple: 0.15,
			ThetaCand:  0.55,
			UseFilter:  true,
		},
		docs: [3][]byte{
			xmlBytes(t, datagen.FreeDBToXML(c0)),
			xmlBytes(t, datagen.FreeDBToXML(c1)),
			xmlBytes(t, datagen.FreeDBToXML(c2)),
		},
		// Last disc of the initial source and third disc of batch1.
		removes: []string{
			fmt.Sprintf("0:/freedb/disc[%d]", len(c0)),
			"1:/freedb/disc[3]",
		},
		artist: cds[0].Artist,
	}
}

func xmlBytes(t *testing.T, doc *xmltree.Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// input parses doc i as the same-named source both the daemon and the
// offline reference chain ingest.
func (f *fixture) input(t *testing.T, i int) core.SourceInput {
	t.Helper()
	return docInput(t, fmt.Sprintf("src-%d", i), f.docs[i])
}

// docInput parses raw XML as a named source.
func docInput(t *testing.T, name string, raw []byte) core.SourceInput {
	t.Helper()
	doc, err := xmltree.Parse(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return core.DocSource{Name: name, Doc: doc}
}

// resolveSpecs maps SOURCE:path removal specs onto res's live IDs —
// the offline twin of the daemon's apply-time resolution.
func resolveSpecs(t *testing.T, res *core.Result, specs []string) []int32 {
	t.Helper()
	ms, ok := res.Store.(od.MutableStore)
	if !ok {
		t.Fatalf("store %T is not mutable", res.Store)
	}
	var out []int32
	for _, spec := range specs {
		colon := strings.IndexByte(spec, ':')
		source, err := strconv.Atoi(spec[:colon])
		if err != nil {
			t.Fatalf("bad spec %q", spec)
		}
		path := spec[colon+1:]
		found := int32(-1)
		for id, c := range res.Candidates {
			if c.Source == source && c.Path == path && ms.Alive(int32(id)) {
				if found >= 0 {
					t.Fatalf("spec %q ambiguous", spec)
				}
				found = int32(id)
			}
		}
		if found < 0 {
			t.Fatalf("spec %q matches no live candidate", spec)
		}
		out = append(out, found)
	}
	return out
}

// canonResult canonicalizes everything the bit-identity contract
// covers — live candidates, scored pairs, clusters — independent of ID
// assignment, so results from different store backends compare.
func canonResult(res *core.Result) string {
	removed := map[int32]bool{}
	for _, id := range res.Removed {
		removed[id] = true
	}
	name := func(id int32) string {
		c := res.Candidates[id]
		return fmt.Sprintf("%d#%s", c.Source, c.Path)
	}
	var live []string
	for id := range res.Candidates {
		if !removed[int32(id)] {
			live = append(live, name(int32(id)))
		}
	}
	sort.Strings(live)
	var pairs []string
	for _, p := range res.Pairs {
		a, b := name(p.I), name(p.J)
		if a > b {
			a, b = b, a
		}
		pairs = append(pairs, fmt.Sprintf("%s|%s|%.6f", a, b, p.Score))
	}
	sort.Strings(pairs)
	var clusters []string
	for _, members := range res.Clusters {
		var ms []string
		for _, m := range members {
			ms = append(ms, name(m))
		}
		sort.Strings(ms)
		clusters = append(clusters, strings.Join(ms, ","))
	}
	sort.Strings(clusters)
	return fmt.Sprintf("live=%v\npairs=%v\nclusters=%v\n", live, pairs, clusters)
}

// canonClusters canonicalizes a wire-level clusters response the same
// way canonResult canonicalizes the in-process clusters, so the served
// JSON can be pinned against the Result it was published from.
func canonClusters(resp *api.ClustersResponse) string {
	var clusters []string
	for _, c := range resp.Clusters {
		var ms []string
		for _, m := range c.Members {
			ms = append(ms, fmt.Sprintf("%d#%s", m.Source, m.Path))
		}
		sort.Strings(ms)
		clusters = append(clusters, strings.Join(ms, ","))
	}
	sort.Strings(clusters)
	return fmt.Sprintf("clusters=%v\n", clusters)
}

func canonResultClusters(res *core.Result) string {
	name := func(id int32) string {
		c := res.Candidates[id]
		return fmt.Sprintf("%d#%s", c.Source, c.Path)
	}
	var clusters []string
	for _, members := range res.Clusters {
		var ms []string
		for _, m := range members {
			ms = append(ms, name(m))
		}
		sort.Strings(ms)
		clusters = append(clusters, strings.Join(ms, ","))
	}
	sort.Strings(clusters)
	return fmt.Sprintf("clusters=%v\n", clusters)
}

func distStore(n int) func() od.Store {
	return func() od.Store {
		parts := make([]od.Partition, n)
		for i := range parts {
			parts[i] = odrpc.NewLoopback(od.NewMemStore())
		}
		return od.NewPartitionedStore(parts, 0)
	}
}

// offlineChain runs the one-shot reference: Detect + Update(batch1) +
// Update(batch2, removals) in a single process with no daemon, on the
// given backend.
func offlineChain(t *testing.T, fix *fixture, newStore func() od.Store) *core.Result {
	t.Helper()
	cfg := fix.cfg
	cfg.NewStore = newStore
	cfg.Incremental = true
	det, err := core.NewDetector(fix.mapping, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.DetectInputs("DISC", fix.input(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := det.Update(res, core.UpdateBatch{Add: []core.SourceInput{fix.input(t, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := det.Update(res1, core.UpdateBatch{
		Add:    []core.SourceInput{fix.input(t, 2)},
		Remove: resolveSpecs(t, res1, fix.removes),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res2
}

// startService boots a service over a fresh detection of the initial
// corpus, mirroring the daemon's build-at-startup mode.
func startService(t *testing.T, fix *fixture, cfg core.Config, svcCfg api.Config) *api.Service {
	t.Helper()
	det, err := core.NewDetector(fix.mapping, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.DetectInputs("DISC", fix.input(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	svcCfg.Detector, svcCfg.Result = det, res
	svc, err := api.New(svcCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Shutdown(context.Background()) })
	return svc
}

// submitBatch posts doc i (and removal specs) through the HTTP client.
func submitBatch(t *testing.T, cl *client.Client, fix *fixture, i int, removes []string) *api.UpdateResponse {
	t.Helper()
	resp, err := cl.Submit(context.Background(), &api.UpdateRequest{
		Add:    []api.UpdateDoc{{Name: fmt.Sprintf("src-%d", i), XML: string(fix.docs[i])}},
		Remove: removes,
	})
	if err != nil {
		t.Fatalf("submit batch %d: %v", i, err)
	}
	return resp
}

// TestDaemonLifecycle is the end-to-end acceptance gate: on every
// backend, a daemon built cold serves queries, applies two streamed
// update batches (the second with removals), and finishes bit-identical
// to the one-shot Detect+Update chain that never saw a daemon.
func TestDaemonLifecycle(t *testing.T) {
	backends := []struct {
		name     string
		newStore func(t *testing.T) func() od.Store
	}{
		{"mem", func(t *testing.T) func() od.Store { return nil }},
		{"disk", func(t *testing.T) func() od.Store {
			dir := t.TempDir()
			return func() od.Store { return od.NewDiskStore(dir) }
		}},
		{"dist-3", func(t *testing.T) func() od.Store { return distStore(3) }},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			fix := newFixture(t)
			cfg := fix.cfg
			cfg.NewStore = be.newStore(t)
			cfg.Incremental = true
			svc := startService(t, fix, cfg, api.Config{})

			ts := httptest.NewServer(svc.Handler())
			defer ts.Close()
			cl := client.New(ts.URL)
			ctx := context.Background()

			h, err := cl.Health(ctx)
			if err != nil || h.Status != "ok" || h.Type != "DISC" || h.Epoch != 0 {
				t.Fatalf("health = %+v, %v", h, err)
			}
			c0, err := cl.Clusters(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := canonClusters(c0), canonResultClusters(svc.Result()); got != want {
				t.Fatalf("served clusters diverge from published result\n got: %s\nwant: %s", got, want)
			}

			r1 := submitBatch(t, cl, fix, 1, nil)
			if r1.Epoch != 1 || r1.Coalesced != 1 {
				t.Fatalf("batch1 ack = %+v", r1)
			}
			r2 := submitBatch(t, cl, fix, 2, fix.removes)
			if r2.Epoch != 2 {
				t.Fatalf("batch2 ack = %+v", r2)
			}

			want := offlineChain(t, fix, be.newStore(t))
			got := svc.Result()
			if canonResult(got) != canonResult(want) {
				t.Errorf("daemon chain diverges from one-shot chain\n got: %s\nwant: %s", canonResult(got), canonResult(want))
			}
			if got.Stats.Compared != want.Stats.Compared || got.Stats.Patched != want.Stats.Patched {
				t.Errorf("daemon compared=%d patched=%d, one-shot compared=%d patched=%d",
					got.Stats.Compared, got.Stats.Patched, want.Stats.Compared, want.Stats.Patched)
			}

			// Re-query after the updates: the served view is the new epoch.
			c2, err := cl.Clusters(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if c2.Epoch != 2 {
				t.Errorf("clusters epoch = %d after two updates", c2.Epoch)
			}
			if gotC, wantC := canonClusters(c2), canonResultClusters(want); gotC != wantC {
				t.Errorf("served clusters diverge from one-shot clusters\n got: %s\nwant: %s", gotC, wantC)
			}

			// Per-candidate endpoint agrees with the result's pairs.
			if len(got.Pairs) == 0 {
				t.Fatal("no pairs detected; fixture is broken")
			}
			p := got.Pairs[0]
			d, err := cl.Duplicates(ctx, p.I)
			if err != nil {
				t.Fatal(err)
			}
			foundPartner := false
			for _, hit := range d.Pairs {
				if hit.Other.ID == p.J && !hit.Possible {
					foundPartner = true
				}
			}
			if !foundPartner {
				t.Errorf("duplicates(%d) = %+v, missing partner %d", p.I, d, p.J)
			}

			// Value-index endpoint answers through the live store.
			sim, err := cl.Similar(ctx, "ARTIST", fix.artist)
			if err != nil {
				t.Fatal(err)
			}
			if len(sim.Matches) == 0 {
				t.Errorf("similar(ARTIST, %q) found nothing", fix.artist)
			}

			m, err := cl.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if m.Epoch != 2 || m.Updates.Batches != 2 || m.Updates.Applied != 2 || len(m.Stages) == 0 {
				t.Errorf("metrics = epoch %d updates %+v stages %d", m.Epoch, m.Updates, len(m.Stages))
			}
			if be.name == "dist-3" && m.Routing == nil {
				t.Error("dist daemon metrics carry no routing counters")
			}
		})
	}
}

// flakyPart wraps a federation member and fails every read once
// killed, so the daemon tests can watch replica failover through the
// HTTP surface.
type flakyPart struct {
	od.Partition
	dead atomic.Bool
}

var errKilled = errors.New("injected member failure")

func (p *flakyPart) check() error {
	if p.dead.Load() {
		return errKilled
	}
	return nil
}

func (p *flakyPart) ObjectsWithExact(t od.Tuple) ([]int32, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	return p.Partition.ObjectsWithExact(t)
}

func (p *flakyPart) SimilarValues(t od.Tuple) ([]od.ValueMatch, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	return p.Partition.SimilarValues(t)
}

func (p *flakyPart) SimilarValuesBatch(ts []od.Tuple) ([][]od.ValueMatch, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	return p.Partition.SimilarValuesBatch(ts)
}

func (p *flakyPart) RoutingFilters() ([]od.VariantFilter, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	return p.Partition.RoutingFilters()
}

func (p *flakyPart) Stats() ([]od.TypeStats, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	return p.Partition.Stats()
}

func (p *flakyPart) ExportODs(lo, hi int32) ([]*od.OD, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	return p.Partition.ExportODs(lo, hi)
}

func (p *flakyPart) Info() (od.PartitionInfo, error) {
	if err := p.check(); err != nil {
		return od.PartitionInfo{}, err
	}
	return p.Partition.Info()
}

// TestDaemonReplicaFailover pins the elastic-federation surface of the
// daemon: with one replica per partition, killing every primary leaves
// the daemon answering reads (the fan-outs fail over member by
// member), /healthz reports the down members while staying 200, and
// /metrics carries the per-partition replica counters.
func TestDaemonReplicaFailover(t *testing.T) {
	fix := newFixture(t)
	var primaries []*flakyPart
	cfg := fix.cfg
	cfg.Incremental = true
	var fed *od.PartitionedStore
	cfg.NewStore = func() od.Store {
		primaries = nil
		parts := make([]od.Partition, 3)
		groups := make([][]od.Partition, 3)
		for i := range parts {
			p := &flakyPart{Partition: od.LocalPartition{S: od.NewMemStore()}}
			primaries = append(primaries, p)
			parts[i] = p
			groups[i] = []od.Partition{od.LocalPartition{S: od.NewMemStore()}}
		}
		fed = od.NewPartitionedStore(parts, 0)
		if err := fed.AttachReplicas(groups); err != nil {
			t.Fatal(err)
		}
		return fed
	}
	svc := startService(t, fix, cfg, api.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	healthy, err := cl.Similar(ctx, "ARTIST", fix.artist)
	if err != nil || len(healthy.Matches) == 0 {
		t.Fatalf("healthy similar = %+v, %v", healthy, err)
	}
	h, err := cl.Health(ctx)
	if err != nil || h.ReplicasDown != 0 {
		t.Fatalf("healthy /healthz = %+v, %v", h, err)
	}

	// Kill every primary. Variant routing off so the next fan-out
	// provably reaches (and marks down) each member rather than
	// skipping it by filter.
	fed.SetVariantRouting(false)
	for _, p := range primaries {
		p.dead.Store(true)
	}
	// An uncached value forces a full fan-out: the primaries fail, the
	// replicas answer, and the daemon keeps serving.
	if _, err := cl.Similar(ctx, "ARTIST", "no-such-artist-zzz"); err != nil {
		t.Fatalf("similar during failover: %v", err)
	}
	again, err := cl.Similar(ctx, "ARTIST", fix.artist)
	if err != nil || canonMatches(again) != canonMatches(healthy) {
		t.Fatalf("failover similar = %+v, %v; want the healthy answer", again, err)
	}

	h, err = cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.ReplicasDown != 3 {
		t.Fatalf("degraded /healthz = %+v, want ok with 3 members down", h)
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Replicas) != 3 {
		t.Fatalf("metrics carry %d replica groups, want 3", len(m.Replicas))
	}
	down, errs := 0, 0
	for _, rc := range m.Replicas {
		if rc.Members != 2 {
			t.Fatalf("replica group %+v, want 2 members", rc)
		}
		down += len(rc.Down)
		errs += len(rc.Errors)
	}
	if down != 3 || errs != 3 {
		t.Fatalf("replica counters down=%d errors=%d, want 3 down with errors recorded", down, errs)
	}
}

// canonMatches canonicalizes a /v1/similar response for comparison.
func canonMatches(r *api.SimilarResponse) string {
	var out []string
	for _, m := range r.Matches {
		out = append(out, fmt.Sprintf("%s|%.6f|%d", m.Value, m.Dist, len(m.Objects)))
	}
	sort.Strings(out)
	return strings.Join(out, ";")
}

// TestDaemonDurabilityContract pins the volatile-ack surface: a
// memory-only daemon acks updates with Durable=false and advertises
// DurableAcks=false in metrics, while a daemon with a Persist hook (or
// a persisting pipeline) acks Durable=true — the bit the CLI's
// volatile-ack warning keys on.
func TestDaemonDurabilityContract(t *testing.T) {
	fix := newFixture(t)
	cfg := fix.cfg
	cfg.Incremental = true
	ctx := context.Background()

	svc := startService(t, fix, cfg, api.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	if r := submitBatch(t, cl, fix, 1, nil); r.Durable || r.Persisted {
		t.Fatalf("volatile daemon acked durable=%v persisted=%v", r.Durable, r.Persisted)
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.DurableAcks {
		t.Fatal("volatile daemon advertises durable acks")
	}

	persists := 0
	svc2 := startService(t, fix, cfg, api.Config{Persist: func(*core.Result) error { persists++; return nil }})
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	cl2 := client.New(ts2.URL)
	if r := submitBatch(t, cl2, fix, 1, nil); !r.Durable || !r.Persisted {
		t.Fatalf("persisting daemon acked durable=%v persisted=%v", r.Durable, r.Persisted)
	}
	if persists == 0 {
		t.Fatal("persist hook never ran")
	}
	m2, err := cl2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.DurableAcks {
		t.Fatal("persisting daemon advertises volatile acks")
	}
}

// TestDaemonRestartDisk pins the disk daemon's cold + warm lifecycle:
// a daemon builds and persists through the pipeline, a second daemon
// process adopts the snapshot (serve-without-documents mode), applies
// the next batch, and lands bit-identical to the chain that never
// restarted.
func TestDaemonRestartDisk(t *testing.T) {
	fix := newFixture(t)
	dir := t.TempDir()

	cfg := fix.cfg
	cfg.NewStore = func() od.Store { return od.NewDiskStore(dir) }
	cfg.Incremental = true
	cfg.Snapshot = &core.SnapshotOptions{Dir: dir, Save: true}
	svc := startService(t, fix, cfg, api.Config{PipelinePersists: true})
	ts := httptest.NewServer(svc.Handler())
	cl := client.New(ts.URL)
	r1 := submitBatch(t, cl, fix, 1, nil)
	if !r1.Persisted {
		t.Fatal("disk daemon ack did not report persistence")
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// "Restart": adopt the snapshot exactly like dogmatixd's
	// serve-without-documents disk mode.
	ds, err := od.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	adopted, err := core.Adopt("DISC", ds)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := adopted.StageByName(core.StageAdopt); !ok || st.Items == 0 {
		t.Fatalf("adopt restored no traces (stage %+v, found %v)", st, ok)
	}
	cfg2 := fix.cfg
	cfg2.Incremental = true
	cfg2.Snapshot = &core.SnapshotOptions{Dir: dir, Save: true}
	det2, err := core.NewDetector(fix.mapping, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := api.New(api.Config{Detector: det2, Result: adopted, PipelinePersists: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Shutdown(context.Background())
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	r2 := submitBatch(t, client.New(ts2.URL), fix, 2, fix.removes)
	restarted := svc2.Result()
	if restarted.Stats.TraceSource != "disk" {
		t.Errorf("restarted update TraceSource = %q, want disk", restarted.Stats.TraceSource)
	}
	if r2.Patched == 0 {
		t.Error("restarted update patched nothing; the persisted traces never replayed")
	}

	// The reference chain never saw a daemon or a restart: one process,
	// Detect + Update + Update on its own disk directory.
	dir2 := t.TempDir()
	want := offlineChain(t, fix, func() od.Store { return od.NewDiskStore(dir2) })
	if canonResult(restarted) != canonResult(want) {
		t.Errorf("restarted daemon diverges from one-shot chain\n got: %s\nwant: %s", canonResult(restarted), canonResult(want))
	}
	if restarted.Stats.Compared != want.Stats.Compared || restarted.Stats.Patched != want.Stats.Patched {
		t.Errorf("restarted compared=%d patched=%d, one-shot compared=%d patched=%d",
			restarted.Stats.Compared, restarted.Stats.Patched, want.Stats.Compared, want.Stats.Patched)
	}
}

// TestDaemonRestartDist pins the distributed daemon's lifecycle: a
// cold-built federation persists generation snapshots through
// FederationDir, a restart adopts the last committed generation, and
// the post-restart update matches the never-restarted chain.
func TestDaemonRestartDist(t *testing.T) {
	fix := newFixture(t)
	root := t.TempDir() + "/fed"

	cfg := fix.cfg
	cfg.NewStore = distStore(3)
	cfg.Incremental = true
	det, err := core.NewDetector(fix.mapping, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res0, err := det.DetectInputs("DISC", fix.input(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	fdir, err := api.CreateFederationDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := fdir.Persist(res0); err != nil {
		t.Fatal(err)
	}
	svc, err := api.New(api.Config{Detector: det, Result: res0, Persist: fdir.Persist})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	r1 := submitBatch(t, client.New(ts.URL), fix, 1, nil)
	if !r1.Persisted {
		t.Fatal("dist daemon ack did not report persistence")
	}
	inMem1 := svc.Result()

	// Restart from the committed generation.
	fdir2, fed2, err := api.OpenFederationDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer fed2.Close()
	adopted, err := core.Adopt("DISC", fed2)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := adopted.StageByName(core.StageAdopt); !ok || st.Items == 0 {
		t.Fatalf("adopt restored no federation traces (stage %+v, found %v)", st, ok)
	}
	det2, err := core.NewDetector(fix.mapping, cfg) // cfg.NewStore unused by Update
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := api.New(api.Config{Detector: det2, Result: adopted, Persist: fdir2.Persist})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Shutdown(context.Background())
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	r2 := submitBatch(t, client.New(ts2.URL), fix, 2, fix.removes)
	if !r2.Persisted {
		t.Fatal("post-restart dist ack did not report persistence")
	}
	restarted := svc2.Result()
	if restarted.Stats.TraceSource != "disk" {
		t.Errorf("restarted update TraceSource = %q, want disk", restarted.Stats.TraceSource)
	}

	res2, err := detUpdate(t, fix, det, inMem1)
	if err != nil {
		t.Fatal(err)
	}
	if canonResult(restarted) != canonResult(res2) {
		t.Errorf("restarted dist daemon diverges from in-process chain\n got: %s\nwant: %s", canonResult(restarted), canonResult(res2))
	}

	// The persisted chain is reopenable once more: three generations
	// were committed (initial, batch1, batch2).
	_, fed3, err := api.OpenFederationDir(root)
	if err != nil {
		t.Fatal(err)
	}
	fed3.Close()
}

// detUpdate applies batch2 + removals on det continuing from prev —
// the shared tail of the restart tests' reference chains.
func detUpdate(t *testing.T, fix *fixture, det *core.Detector, prev *core.Result) (*core.Result, error) {
	t.Helper()
	return det.Update(prev, core.UpdateBatch{
		Add:    []core.SourceInput{fix.input(t, 2)},
		Remove: resolveSpecs(t, prev, fix.removes),
	})
}

// TestDaemonReuseIndexStart pins the -reuse-index boot mode: the
// second daemon start over the same corpus warm-starts from the saved
// snapshot instead of rebuilding, then serves updates normally.
func TestDaemonReuseIndexStart(t *testing.T) {
	fix := newFixture(t)
	dir := t.TempDir()
	mk := func() *api.Service {
		cfg := fix.cfg
		cfg.Incremental = true
		cfg.Snapshot = &core.SnapshotOptions{Dir: dir, Reuse: true, Save: true}
		return startService(t, fix, cfg, api.Config{PipelinePersists: true})
	}
	cold := mk()
	if cold.Result().WarmStart {
		t.Fatal("first start warm-started from an empty directory")
	}
	if err := cold.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	warm := mk()
	if !warm.Result().WarmStart {
		t.Fatal("second start rebuilt instead of warm-starting")
	}
	ts := httptest.NewServer(warm.Handler())
	defer ts.Close()
	r1 := submitBatch(t, client.New(ts.URL), fix, 1, nil)
	if r1.Epoch != 1 || !r1.Persisted {
		t.Fatalf("warm-start daemon ack = %+v", r1)
	}
}

// TestDaemonRejections pins the typed error surface: unknown
// candidates are 404s, malformed batches and unresolvable removals are
// 400s that poison nothing, and the daemon keeps serving afterwards.
func TestDaemonRejections(t *testing.T) {
	fix := newFixture(t)
	cfg := fix.cfg
	cfg.Incremental = true
	svc := startService(t, fix, cfg, api.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	if _, err := cl.Duplicates(ctx, 99999); !isCode(err, api.CodeNotFound, 404) {
		t.Errorf("duplicates(99999) err = %v, want 404 not_found", err)
	}
	if _, err := cl.Similar(ctx, "", ""); !isCode(err, api.CodeBadRequest, 400) {
		t.Errorf("similar() err = %v, want 400", err)
	}
	if _, err := cl.Submit(ctx, &api.UpdateRequest{}); !isCode(err, api.CodeBadRequest, 400) {
		t.Errorf("empty submit err = %v, want 400", err)
	}
	if _, err := cl.Submit(ctx, &api.UpdateRequest{Add: []api.UpdateDoc{{Name: "bad", XML: "<unclosed"}}}); !isCode(err, api.CodeBadRequest, 400) {
		t.Errorf("bad XML submit err = %v, want 400", err)
	}
	if _, err := cl.Submit(ctx, &api.UpdateRequest{Remove: []string{"/freedb/disc[99999]"}}); !isCode(err, api.CodeBadRequest, 400) {
		t.Errorf("bogus removal err = %v, want 400", err)
	}

	// None of those poisoned the daemon: a real batch still applies.
	if r := submitBatch(t, cl, fix, 1, nil); r.Epoch != 1 {
		t.Fatalf("post-rejection submit = %+v", r)
	}
	h, err := cl.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health after rejections = %+v, %v", h, err)
	}
}

func isCode(err error, code string, status int) bool {
	var apiErr *api.Error
	return errors.As(err, &apiErr) && apiErr.Code == code && apiErr.Status == status
}
