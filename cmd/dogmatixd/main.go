// Command dogmatixd is the long-running DogmatiX daemon: it opens (or
// builds) an index snapshot at startup and serves duplicate queries
// and incremental updates over an HTTP/JSON API.
//
// Usage:
//
//	dogmatixd -addr 127.0.0.1:7497 -map mapping.txt -type MOVIE \
//	          [-schema doc.xsd] [-heuristic kd:6] [-ttuple 0.15] \
//	          [-tcand 0.55] [-filter] [-workers 4] \
//	          [-store mem|disk|dist] \
//	          [-partitions 3 | -partition-addrs H1:P1,H2:P2] \
//	          [-replicas 1 | -replica-addrs R1a;R1b,R2] [-spill-ods] \
//	          [-store-dir DIR] [-reuse-index] [-snapshot-root DIR] \
//	          [-queue-depth 16] [-drain-timeout 30s] \
//	          [doc1.xml doc2.xml ...]
//
// With input documents the daemon builds the corpus at startup, over
// any of the three backends of the dogmatix CLI (-store mem, disk or
// dist, identical answers on each); -reuse-index warm-starts from
// (and saves into) a matching snapshot in -store-dir exactly like the
// CLI. Without documents it serves persisted state: -store disk
// adopts the snapshot in -store-dir (the one a previous daemon run or
// a dogmatix -store disk / -update run left there), and -store dist
// adopts the last committed generation under -snapshot-root.
//
// Endpoints:
//
//	GET  /v1/duplicates/{id}         pairs + cluster of one candidate
//	GET  /v1/clusters                full dupcluster result
//	GET  /v1/similar?type=&value=    live value-index query
//	POST /v1/updates                 update batch; 200 = applied (and persisted)
//	GET  /metrics                    stage/cache/routing/wire counters as JSON
//	GET  /healthz                    ok | degraded | draining
//
// Read queries run lock-free against the last published result;
// updates serialize behind an admission-controlled queue and coalesce
// into single incremental Update runs. Persistence is part of the ack:
// a disk-backed daemon persists through the pipeline's snapshot stage,
// a dist daemon with -snapshot-root commits each update as a new
// snapshot generation before answering 200. On SIGINT/SIGTERM the
// daemon drains: in-flight queries finish, every admitted update batch
// applies and persists, later submissions get a typed 503 with
// Retry-After.
//
// Streaming ingest (-stream) is not offered here: build the snapshot
// with the dogmatix CLI and serve it with -store disk -store-dir.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/od"
	"repro/internal/od/odcodec"
	"repro/internal/od/odrpc"
	"repro/internal/xmltree"
	"repro/internal/xsd"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7497", "HTTP listen address")
		mapFile      = flag.String("map", "", "mapping file (required)")
		typeName     = flag.String("type", "", "real-world type to deduplicate (required)")
		xsdFile      = flag.String("schema", "", "XSD schema file (default: infer per document)")
		heuristic    = flag.String("heuristic", "kd:6", "description heuristic spec (see internal/heuristics.ParseSpec)")
		ttuple       = flag.Float64("ttuple", 0.15, "OD tuple similarity threshold θtuple")
		tcand        = flag.Float64("tcand", 0.55, "duplicate classification threshold θcand")
		useFilter    = flag.Bool("filter", false, "enable the Step 4 object filter")
		workers      = flag.Int("workers", 0, "worker goroutines for Steps 4/5 (0 = GOMAXPROCS)")
		store        = flag.String("store", "", "OD store backend: mem | disk | dist (defaults like the dogmatix CLI)")
		partitions   = flag.Int("partitions", 0, "in-process partition count for the distributed store")
		partAddrs    = flag.String("partition-addrs", "", "comma-separated odrpc server addresses for the distributed store")
		replicas     = flag.Int("replicas", 0, "loopback replica members per partition for the distributed store")
		replicaAddrs = flag.String("replica-addrs", "", "odrpc replica addresses per partition: groups comma-separated and aligned with the partitions, members within a group separated by ';'")
		spillODs     = flag.Bool("spill-ods", false, "with -store dist serving a snapshot: keep the coordinator OD directory on disk behind an LRU instead of materializing it")
		storeDir     = flag.String("store-dir", "", "disk-store segment / snapshot directory")
		mmap         = flag.String("mmap", "auto", "disk-store segment access: auto | on | off")
		reuseIndex   = flag.Bool("reuse-index", false, "warm-start from a matching snapshot in -store-dir (and save one after a fresh build)")
		snapshotRoot = flag.String("snapshot-root", "", "with -store dist: root directory for generation-numbered federation snapshots")
		rpcTimeout   = flag.Duration("rpc-timeout", odrpc.DefaultTimeout, "per-call deadline on dist federation members")
		queueDepth   = flag.Int("queue-depth", 16, "max queued update submissions before 503 queue_full")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget for draining queries and queued updates")
	)
	flag.Parse()
	opts := options{
		addr: *addr, mapFile: *mapFile, typeName: *typeName, xsdFile: *xsdFile,
		heuristic: *heuristic, ttuple: *ttuple, tcand: *tcand,
		useFilter: *useFilter, workers: *workers,
		store: *store, partitions: *partitions, partAddrs: *partAddrs,
		replicas: *replicas, replicaAddrs: *replicaAddrs, spillODs: *spillODs,
		storeDir: *storeDir, mmap: *mmap, reuseIndex: *reuseIndex,
		snapshotRoot: *snapshotRoot, rpcTimeout: *rpcTimeout,
		queueDepth: *queueDepth, drainTimeout: *drainTimeout,
	}
	if err := run(opts, flag.Args(), os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dogmatixd:", err)
		os.Exit(1)
	}
}

type options struct {
	addr                       string
	mapFile, typeName, xsdFile string
	heuristic                  string
	ttuple, tcand              float64
	useFilter                  bool
	workers, partitions        int
	store, storeDir, partAddrs string
	replicas                   int
	replicaAddrs               string
	spillODs                   bool
	mmap                       string
	reuseIndex                 bool
	snapshotRoot               string
	rpcTimeout                 time.Duration
	queueDepth                 int
	drainTimeout               time.Duration

	mmapMode odcodec.MmapMode
}

// Store backend names, matching the dogmatix CLI.
const (
	storeMem  = "mem"
	storeDisk = "disk"
	storeDist = "dist"
)

// validate resolves defaults and rejects bad flag combinations before
// anything is opened, mirroring the CLI's rules plus the daemon's
// serve-without-documents modes.
func (o *options) validate(docs []string) error {
	if o.mapFile == "" || o.typeName == "" {
		return fmt.Errorf("-map and -type are required")
	}
	if o.workers < 0 || o.partitions < 0 || o.replicas < 0 {
		return fmt.Errorf("-workers/-partitions/-replicas cannot be negative")
	}
	if o.partitions > 0 && o.partAddrs != "" {
		return fmt.Errorf("-partitions and -partition-addrs are exclusive")
	}
	if o.replicas > 0 && o.replicaAddrs != "" {
		return fmt.Errorf("-replicas and -replica-addrs are exclusive")
	}
	if o.queueDepth < 1 {
		return fmt.Errorf("-queue-depth %d < 1", o.queueDepth)
	}
	if o.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout %v must be positive", o.drainTimeout)
	}
	if o.rpcTimeout < 0 {
		return fmt.Errorf("-rpc-timeout %v is negative", o.rpcTimeout)
	}
	if o.rpcTimeout == 0 {
		o.rpcTimeout = odrpc.DefaultTimeout
	}
	if o.store == "" {
		switch {
		case o.partitions > 0 || o.partAddrs != "" || (len(docs) == 0 && o.snapshotRoot != ""):
			o.store = storeDist
		case len(docs) == 0:
			o.store = storeDisk
		default:
			o.store = storeMem
		}
	}
	switch o.store {
	case storeMem, storeDisk, storeDist:
	default:
		return fmt.Errorf("unknown -store %q (want %s, %s or %s)", o.store, storeMem, storeDisk, storeDist)
	}
	if o.store != storeDist && (o.partitions > 0 || o.partAddrs != "") {
		return fmt.Errorf("-partitions/-partition-addrs only apply to -store dist, not %q", o.store)
	}
	if o.store != storeDist && (o.replicas > 0 || o.replicaAddrs != "") {
		return fmt.Errorf("-replicas/-replica-addrs only apply to -store dist, not %q", o.store)
	}
	if o.spillODs && (o.store != storeDist || len(docs) > 0) {
		return fmt.Errorf("-spill-ods only applies to -store dist serving an existing snapshot")
	}
	if o.snapshotRoot != "" && o.store != storeDist {
		return fmt.Errorf("-snapshot-root only applies to -store dist (disk snapshots live in -store-dir)")
	}
	if o.store == storeDist {
		if o.reuseIndex {
			return fmt.Errorf("-reuse-index snapshots a single disk directory; a dist daemon persists under -snapshot-root")
		}
		if o.storeDir != "" {
			return fmt.Errorf("-store-dir does not apply to -store dist; use -snapshot-root")
		}
		if len(docs) == 0 {
			if o.snapshotRoot == "" {
				return fmt.Errorf("no input documents: a dist daemon needs -snapshot-root with a committed snapshot to serve")
			}
			if o.partitions > 0 || o.partAddrs != "" {
				return fmt.Errorf("-partitions/-partition-addrs only apply when building; serving reopens the members persisted under -snapshot-root")
			}
		} else if o.partitions == 0 && o.partAddrs == "" {
			o.partitions = 2
		}
	}
	if o.store == storeDisk && o.storeDir == "" {
		return fmt.Errorf("-store disk needs -store-dir")
	}
	if o.reuseIndex {
		if o.storeDir == "" {
			return fmt.Errorf("-reuse-index needs -store-dir")
		}
		if len(docs) == 0 {
			return fmt.Errorf("-reuse-index rebuilds on a snapshot miss and so needs input documents; to serve an existing snapshot, drop it")
		}
	}
	if len(docs) == 0 && o.store != storeDisk && o.store != storeDist {
		return fmt.Errorf("no input documents: -store %s has no persisted state to serve", o.store)
	}
	if o.storeDir != "" && o.store != storeDisk && !o.reuseIndex {
		return fmt.Errorf("-store-dir is set but neither -store disk nor -reuse-index uses it")
	}
	if o.mmap == "" {
		o.mmap = "auto"
	}
	mode, err := odcodec.ParseMmapMode(o.mmap)
	if err != nil {
		return fmt.Errorf("-mmap: %w", err)
	}
	o.mmapMode = mode
	return nil
}

// boot is everything run needs from startup: the service plus the
// resources to release on exit.
type boot struct {
	svc     *api.Service
	cleanup func()
}

// buildService boots the daemon's state: parse mapping/heuristic/
// schema, then build or adopt per the validated flags, and wrap the
// result in the service layer.
func buildService(opts options, docs []string) (*boot, error) {
	if err := opts.validate(docs); err != nil {
		return nil, err
	}
	mf, err := os.Open(opts.mapFile)
	if err != nil {
		return nil, err
	}
	mapping, err := core.ParseMapping(mf)
	mf.Close()
	if err != nil {
		return nil, err
	}
	h, err := heuristics.ParseSpec(opts.heuristic)
	if err != nil {
		return nil, err
	}
	var schema *xsd.Schema
	if opts.xsdFile != "" {
		sf, err := os.Open(opts.xsdFile)
		if err != nil {
			return nil, err
		}
		schema, err = xsd.Parse(sf)
		sf.Close()
		if err != nil {
			return nil, err
		}
	}

	cfg := core.Config{
		Heuristic:  h,
		ThetaTuple: opts.ttuple,
		ThetaCand:  opts.tcand,
		UseFilter:  opts.useFilter,
		Workers:    opts.workers,
		// The daemon always records replay traces: every POSTed batch
		// should patch instead of recomparing the whole corpus.
		Incremental: true,
	}
	svcCfg := api.Config{Schema: schema, QueueDepth: opts.queueDepth}
	cleanup := func() {}

	if len(docs) == 0 {
		// Serve persisted state.
		var res *core.Result
		if opts.store == storeDist {
			fdir, fed, err := api.OpenFederationDirWith(opts.snapshotRoot, od.OpenOptions{SpillODs: opts.spillODs})
			if err != nil {
				return nil, err
			}
			// Post-open attachment hydrates every replica from its group
			// before the daemon serves a single request.
			if err := attachReplicas(fed, opts); err != nil {
				fed.Close()
				return nil, err
			}
			res, err = core.Adopt(opts.typeName, fed)
			if err != nil {
				fed.Close()
				return nil, err
			}
			svcCfg.Persist = fdir.Persist
			cleanup = func() { fed.Close() }
		} else {
			ds, err := od.OpenDiskStoreWith(opts.storeDir, od.DiskOptions{Mmap: opts.mmapMode})
			if err != nil {
				return nil, fmt.Errorf("open index snapshot in %s: %w (build one first: dogmatix -store disk -store-dir %s)",
					opts.storeDir, err, opts.storeDir)
			}
			if got := ds.Theta(); got != opts.ttuple {
				ds.Close()
				return nil, fmt.Errorf("snapshot in %s was built for -ttuple %v, daemon requests %v", opts.storeDir, got, opts.ttuple)
			}
			res, err = core.Adopt(opts.typeName, ds)
			if err != nil {
				ds.Close()
				return nil, err
			}
			cfg.Snapshot = &core.SnapshotOptions{Dir: opts.storeDir, Save: true, Disk: od.DiskOptions{Mmap: opts.mmapMode}}
			svcCfg.PipelinePersists = true
			cleanup = func() { ds.Close() }
		}
		det, err := core.NewDetector(mapping, cfg)
		if err != nil {
			cleanup()
			return nil, err
		}
		// An adopted result carries the corpus and its replay traces but
		// no pairs or clusters — those are run state, not snapshot state.
		// A zero-batch Update rehydrates them, replaying every surviving
		// pair from its trace (or recomparing when the snapshot carried
		// none), so the daemon serves the full clustering from its first
		// request instead of an empty one until the first POSTed batch.
		res, err = det.Update(res, core.UpdateBatch{})
		if err != nil {
			cleanup()
			return nil, err
		}
		svcCfg.Detector, svcCfg.Result = det, res
	} else {
		// Build the corpus at startup.
		var inputs []core.SourceInput
		for _, path := range docs {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			doc, err := xmltree.Parse(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			inputs = append(inputs, core.Source{Name: path, Doc: doc, Schema: schema})
		}
		var fed *od.PartitionedStore
		switch opts.store {
		case storeDisk:
			cfg.NewStore = func() od.Store { return od.NewDiskStoreWith(opts.storeDir, od.DiskOptions{Mmap: opts.mmapMode}) }
		case storeDist:
			fed, err = buildFederation(opts)
			if err != nil {
				return nil, err
			}
			f := fed
			cfg.NewStore = func() od.Store { return f }
			cleanup = func() { f.Close() }
		}
		if opts.store == storeDisk || opts.reuseIndex {
			cfg.Snapshot = &core.SnapshotOptions{Dir: opts.storeDir, Reuse: opts.reuseIndex, Save: true, Disk: od.DiskOptions{Mmap: opts.mmapMode}}
			svcCfg.PipelinePersists = true
		}
		det, err := core.NewDetector(mapping, cfg)
		if err != nil {
			cleanup()
			return nil, err
		}
		res, err := det.DetectInputs(opts.typeName, inputs...)
		if err != nil {
			cleanup()
			return nil, err
		}
		if opts.store == storeDist && opts.snapshotRoot != "" {
			fdir, err := api.CreateFederationDir(opts.snapshotRoot)
			if err == nil {
				// The freshly built corpus is generation 1: the daemon
				// can crash and restart into it before any update.
				err = fdir.Persist(res)
			}
			if err != nil {
				cleanup()
				return nil, err
			}
			svcCfg.Persist = fdir.Persist
		}
		svcCfg.Detector, svcCfg.Result = det, res
	}

	svc, err := api.New(svcCfg)
	if err != nil {
		cleanup()
		return nil, err
	}
	return &boot{svc: svc, cleanup: cleanup}, nil
}

// buildFederation mirrors the CLI: odrpc clients for every
// -partition-addrs server, or -partitions loopback MemStore members.
func buildFederation(opts options) (*od.PartitionedStore, error) {
	var parts []od.Partition
	if opts.partAddrs != "" {
		for _, addr := range strings.Split(opts.partAddrs, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				return nil, fmt.Errorf("-partition-addrs contains an empty address")
			}
			c, err := odrpc.Dial(addr)
			if err != nil {
				for _, p := range parts {
					p.Close()
				}
				return nil, err
			}
			c.Timeout = opts.rpcTimeout
			parts = append(parts, c)
		}
	} else {
		for i := 0; i < opts.partitions; i++ {
			c := odrpc.NewLoopback(od.NewMemStore())
			c.Timeout = opts.rpcTimeout
			parts = append(parts, c)
		}
	}
	fed := od.NewPartitionedStore(parts, 0)
	// Pre-Finalize attachment: the replicas ride the build fan-out.
	if err := attachReplicas(fed, opts); err != nil {
		fed.Close()
		return nil, err
	}
	return fed, nil
}

// replicaGroups builds the replica members the flags describe: either
// -replicas loopback MemStore mirrors per partition, or -replica-addrs
// dialed odrpc members (groups comma-separated and aligned with the
// partitions, members within a group separated by ';'; an empty group
// leaves that partition unreplicated). Returns nil when neither flag
// is set.
func replicaGroups(opts options, nparts int) ([][]od.Partition, error) {
	if opts.replicas > 0 {
		groups := make([][]od.Partition, nparts)
		for i := range groups {
			for r := 0; r < opts.replicas; r++ {
				c := odrpc.NewLoopback(od.NewMemStore())
				c.Timeout = opts.rpcTimeout
				groups[i] = append(groups[i], c)
			}
		}
		return groups, nil
	}
	if opts.replicaAddrs == "" {
		return nil, nil
	}
	fields := strings.Split(opts.replicaAddrs, ",")
	if len(fields) != nparts {
		return nil, fmt.Errorf("-replica-addrs lists %d groups for %d partitions", len(fields), nparts)
	}
	groups := make([][]od.Partition, nparts)
	closeAll := func() {
		for _, g := range groups {
			for _, p := range g {
				p.Close()
			}
		}
	}
	for i, grp := range fields {
		for _, addr := range strings.Split(grp, ";") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			c, err := odrpc.Dial(addr)
			if err != nil {
				closeAll()
				return nil, err
			}
			c.Timeout = opts.rpcTimeout
			groups[i] = append(groups[i], c)
		}
	}
	return groups, nil
}

// attachReplicas wires the flag-described replica groups into fed. On
// a finalized federation this hydrates each replica from its group; a
// failure leaves fed serving exactly as before, so only the orphaned
// replica connections need closing.
func attachReplicas(fed *od.PartitionedStore, opts options) error {
	groups, err := replicaGroups(opts, fed.NumPartitions())
	if err != nil || groups == nil {
		return err
	}
	if err := fed.AttachReplicas(groups); err != nil {
		for _, g := range groups {
			for _, p := range g {
				p.Close()
			}
		}
		return err
	}
	return nil
}

// Connection deadlines of the daemon's HTTP server. A request header
// arrives in one round trip, and a keep-alive connection that sends
// nothing is only held open as a courtesy; a peer slower than either
// is closed, so it can neither pin a connection forever nor hold
// srv.Shutdown to the end of -drain-timeout.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps h in the daemon's http.Server. It bounds the
// header read and the keep-alive idle time only: there is no
// ReadTimeout or WriteTimeout, because an update's body is a whole
// document and its ack legitimately takes as long as a detection run.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func run(opts options, docs []string, stderr io.Writer) error {
	b, err := buildService(opts, docs)
	if err != nil {
		return err
	}
	defer b.cleanup()

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	srv := newHTTPServer(b.svc.Handler())
	res := b.svc.Result()
	fmt.Fprintf(stderr, "dogmatixd: serving %s (%d candidates, %d pairs, %d clusters) on http://%s\n",
		res.Type, len(res.Candidates), len(res.Pairs), len(res.Clusters), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the drain the default way

	fmt.Fprintf(stderr, "dogmatixd: draining (budget %v)\n", opts.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), opts.drainTimeout)
	defer cancel()
	// Drain order matters: close the mutation gate first so queued
	// batches apply and their blocked POST handlers ack, then let the
	// HTTP server wait out the in-flight requests.
	if err := b.svc.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: update queue: %w", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: http: %w", err)
	}
	fmt.Fprintln(stderr, "dogmatixd: drained")
	return nil
}
