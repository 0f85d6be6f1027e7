// Command dogmatixd is the long-running DogmatiX daemon: it opens (or
// builds) an index snapshot at startup and serves duplicate queries
// and incremental updates over an HTTP/JSON API.
//
// Usage:
//
//	dogmatixd -addr 127.0.0.1:7497 -map mapping.txt -type MOVIE \
//	          [-schema doc.xsd] [-heuristic kd:6] [-ttuple 0.15] \
//	          [-tcand 0.55] [-filter] [-workers 4] \
//	          [-store mem|disk|dist] [-partitions 3] \
//	          [-store-dir DIR] [-reuse-index] \
//	          [-queue-depth 16] [-drain-timeout 30s] \
//	          [doc1.xml doc2.xml ...]
//
// With input documents the daemon builds the corpus at startup, over
// any of the three backends of the dogmatix CLI (-store mem, disk or
// dist, identical answers on each); -reuse-index warm-starts from
// (and saves into) a matching snapshot in -store-dir exactly like the
// CLI. Without documents it serves persisted state: it adopts the disk
// snapshot in -store-dir (the one a previous daemon run or a dogmatix
// -store disk / -update run left there). The mem and dist backends
// live in memory and have no persisted state to serve.
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
// a disk-backed daemon persists through the pipeline's snapshot stage
// before answering 200; a mem or dist daemon acks with durable=false.
// On SIGINT/SIGTERM the daemon drains: in-flight queries finish, every
// admitted update batch applies (and persists), later submissions get
// a typed 503 with Retry-After.
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
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/cliopt"
	"repro/internal/core"
)

func main() {
	var opts options
	opts.register(flag.CommandLine)
	flag.Parse()
	if err := run(opts, flag.Args(), os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dogmatixd:", err)
		os.Exit(1)
	}
}

// options are the shared flags plus the daemon's own.
type options struct {
	cliopt.Options
	addr         string
	queueDepth   int
	drainTimeout time.Duration
}

// register defines the shared flags and the daemon's own on fs.
func (o *options) register(fs *flag.FlagSet) {
	o.Register(fs)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7497", "HTTP listen address")
	fs.IntVar(&o.queueDepth, "queue-depth", 16, "max queued update submissions before 503 queue_full")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful shutdown budget for draining queries and queued updates")
}

// validate resolves defaults and rejects bad flag combinations before
// anything is opened: the shared rules in cliopt.Options.Validate plus
// the daemon's serve-without-documents mode, where an empty -store
// resolves to disk, the one backend with persisted state.
func (o *options) validate(docs []string) error {
	if o.queueDepth < 1 {
		return fmt.Errorf("-queue-depth %d < 1", o.queueDepth)
	}
	if o.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout %v must be positive", o.drainTimeout)
	}
	serving := len(docs) == 0
	if serving && o.Store == "" {
		o.Store = cliopt.StoreDisk
	}
	if err := o.Options.Validate(); err != nil {
		return err
	}
	switch {
	case !serving:
		return nil
	case o.ReuseIndex:
		return fmt.Errorf("-reuse-index rebuilds on a snapshot miss and so needs input documents; to serve an existing snapshot, drop it")
	case o.Store != cliopt.StoreDisk:
		return fmt.Errorf("no input documents: -store %s has no persisted state to serve", o.Store)
	}
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
	mapping, cfg, schema, err := opts.Load()
	if err != nil {
		return nil, err
	}
	// The daemon always records replay traces: every POSTed batch should
	// patch instead of recomparing the whole corpus.
	cfg.Incremental = true
	svcCfg := api.Config{Schema: schema, QueueDepth: opts.queueDepth}
	cleanup := func() {}

	if len(docs) == 0 {
		// Serve the persisted disk snapshot.
		ds, res, err := opts.AdoptSnapshot()
		if err != nil {
			return nil, err
		}
		cfg.Snapshot = &core.SnapshotOptions{Dir: opts.StoreDir, Save: true}
		svcCfg.PipelinePersists = true
		cleanup = func() { ds.Close() }
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
		inputs, err := cliopt.ParseDocs(docs, schema)
		if err != nil {
			return nil, err
		}
		newStore, fed := opts.NewStore()
		cfg.NewStore = newStore
		if fed != nil {
			cleanup = func() { fed.Close() }
		}
		if opts.Store == cliopt.StoreDisk || opts.ReuseIndex {
			cfg.Snapshot = &core.SnapshotOptions{Dir: opts.StoreDir, Reuse: opts.ReuseIndex, Save: true}
			svcCfg.PipelinePersists = true
		}
		det, err := core.NewDetector(mapping, cfg)
		if err != nil {
			cleanup()
			return nil, err
		}
		res, err := det.DetectInputs(opts.TypeName, inputs...)
		if err != nil {
			cleanup()
			return nil, err
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
