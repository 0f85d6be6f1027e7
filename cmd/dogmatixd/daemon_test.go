package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/api/client"
	"repro/internal/cliopt"
	"repro/internal/datagen"
)

func baseOpts() options {
	return options{
		Options:    cliopt.Options{MapFile: "m.txt", TypeName: "DISC", Heuristic: "kd:6", TTuple: 0.15, TCand: 0.55},
		queueDepth: 16, drainTimeout: 30 * time.Second,
	}
}

// TestValidate pins the daemon's flag contract: backend defaulting per
// mode, and every rejected combination with a recognizable message.
func TestValidate(t *testing.T) {
	cases := []struct {
		name      string
		mutate    func(*options)
		docs      int
		wantErr   string // substring; "" = valid
		wantStore string // resolved backend when valid
	}{
		{name: "build-defaults-mem", docs: 1, wantStore: cliopt.StoreMem},
		{name: "partitions-imply-dist", mutate: func(o *options) { o.Partitions = 3 }, docs: 1, wantStore: cliopt.StoreDist},
		{name: "serve-defaults-disk", mutate: func(o *options) { o.StoreDir = "d" }, wantStore: cliopt.StoreDisk},
		{name: "missing-map", mutate: func(o *options) { o.MapFile = "" }, docs: 1, wantErr: "-map and -type"},
		{name: "missing-type", mutate: func(o *options) { o.TypeName = "" }, docs: 1, wantErr: "-map and -type"},
		{name: "unknown-store", mutate: func(o *options) { o.Store = "bolt" }, docs: 1, wantErr: `unknown -store "bolt"`},
		{name: "sharded-store-removed", mutate: func(o *options) { o.Store = "sharded" }, docs: 1, wantErr: `unknown -store "sharded" (want mem, disk or dist)`},
		{name: "bad-queue-depth", mutate: func(o *options) { o.queueDepth = 0 }, docs: 1, wantErr: "-queue-depth"},
		{name: "bad-drain-timeout", mutate: func(o *options) { o.drainTimeout = 0 }, docs: 1, wantErr: "-drain-timeout"},
		{name: "partitions-on-mem", mutate: func(o *options) {
			o.Store = cliopt.StoreMem
			o.Partitions = 2
		}, docs: 1, wantErr: "only applies to -store dist"},
		{name: "dist-reuse-index", mutate: func(o *options) {
			o.Store = cliopt.StoreDist
			o.ReuseIndex = true
			o.StoreDir = "d"
		}, docs: 1, wantErr: "-reuse-index"},
		{name: "dist-store-dir", mutate: func(o *options) {
			o.Store = cliopt.StoreDist
			o.StoreDir = "d"
		}, docs: 1, wantErr: "-store-dir does not apply"},
		{name: "dist-serve-with-partitions", mutate: func(o *options) {
			o.Store = cliopt.StoreDist
			o.Partitions = 2
		}, wantErr: "no persisted state"},
		{name: "disk-without-dir", mutate: func(o *options) { o.Store = cliopt.StoreDisk }, docs: 1, wantErr: "needs -store-dir"},
		{name: "reuse-without-dir", mutate: func(o *options) { o.ReuseIndex = true }, docs: 1, wantErr: "-reuse-index needs -store-dir"},
		{name: "reuse-without-docs", mutate: func(o *options) {
			o.ReuseIndex = true
			o.StoreDir = "d"
		}, wantErr: "needs input documents"},
		{name: "serve-mem", mutate: func(o *options) { o.Store = cliopt.StoreMem }, wantErr: "no persisted state"},
		{name: "serve-dist", mutate: func(o *options) { o.Store = cliopt.StoreDist }, wantErr: "no persisted state"},
		{name: "stray-store-dir", mutate: func(o *options) { o.StoreDir = "d" }, docs: 1, wantErr: "-store-dir is set"},
		{name: "dist-build-defaults-partitions", mutate: func(o *options) { o.Store = cliopt.StoreDist }, docs: 1, wantStore: cliopt.StoreDist},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := baseOpts()
			if tc.mutate != nil {
				tc.mutate(&o)
			}
			docs := make([]string, tc.docs)
			err := o.validate(docs)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("validate() err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("validate() err = %v", err)
			}
			if o.Store != tc.wantStore {
				t.Fatalf("resolved store = %q, want %q", o.Store, tc.wantStore)
			}
		})
	}

	// The deleted -mmap and -spill-ods flags, and the deleted federation
	// flags (generation snapshots, dialed members, replicas, the member
	// deadline), fail at parse time, before validation.
	for name, args := range map[string][]string{
		"bad-mmap":                         {"-store", "disk", "-store-dir", "d", "-mmap", "off", "a.xml"},
		"spill-ods-serve-dist":             {"-snapshot-root", "r", "-spill-ods"},
		"spill-ods-on-build":               {"-store", "dist", "-spill-ods", "a.xml"},
		"spill-ods-on-disk":                {"-store", "disk", "-store-dir", "d", "-spill-ods", "a.xml"},
		"serve-snapshot-root-implies-dist": {"-snapshot-root", "r"},
		"snapshot-root-on-disk":            {"-store", "disk", "-store-dir", "d", "-snapshot-root", "r", "a.xml"},
		"partitions-and-addrs":             {"-partitions", "2", "-partition-addrs", "h:1", "a.xml"},
		"replicas-build-dist":              {"-partitions", "2", "-replicas", "1", "a.xml"},
		"negative-replicas":                {"-partitions", "2", "-replicas", "-1", "a.xml"},
		"replicas-and-addrs":               {"-partitions", "2", "-replicas", "1", "-replica-addrs", "h:1", "a.xml"},
		"replicas-on-mem":                  {"-store", "mem", "-replicas", "1", "a.xml"},
		"replica-addrs-on-disk":            {"-store", "disk", "-store-dir", "d", "-replica-addrs", "h:1", "a.xml"},
		"rpc-timeout-without-dist":         {"-store", "mem", "-rpc-timeout", "5s", "a.xml"},
	} {
		t.Run(name, func(t *testing.T) {
			var o options
			fs := flag.NewFlagSet("dogmatixd", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			o.register(fs)
			if err := fs.Parse(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
				t.Fatalf("parse %v = %v, want the undefined-flag error", args, err)
			}
		})
	}

	t.Run("dist-build-partition-default", func(t *testing.T) {
		o := baseOpts()
		o.Store = cliopt.StoreDist
		if err := o.validate([]string{"a.xml"}); err != nil {
			t.Fatal(err)
		}
		if o.Partitions != 2 {
			t.Fatalf("dist build defaulted to %d partitions, want 2", o.Partitions)
		}
	})
}

// writeFixtureFiles lays out the on-disk inputs a daemon boot needs:
// a mapping file and one corpus document.
func writeFixtureFiles(t *testing.T) (mapFile, docFile string) {
	t.Helper()
	dir := t.TempDir()
	var mb bytes.Buffer
	for typ, paths := range datagen.FreeDBMappingPaths() {
		fmt.Fprintf(&mb, "%s\t%s\n", typ, strings.Join(paths, "\t"))
	}
	mapFile = filepath.Join(dir, "mapping.txt")
	if err := os.WriteFile(mapFile, mb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cds := datagen.FreeDB(24, 2030)
	cds = append(cds, cds[2], cds[7])
	var db bytes.Buffer
	if err := datagen.FreeDBToXML(cds).WriteXML(&db); err != nil {
		t.Fatal(err)
	}
	docFile = filepath.Join(dir, "corpus.xml")
	if err := os.WriteFile(docFile, db.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return mapFile, docFile
}

// TestBuildServeRestartDisk boots the daemon twice the way operators
// do: first a cold build over documents persisting into -store-dir,
// then a serve-without-documents restart adopting that snapshot, which
// must answer queries and apply an update durably.
func TestBuildServeRestartDisk(t *testing.T) {
	mapFile, docFile := writeFixtureFiles(t)
	storeDir := filepath.Join(t.TempDir(), "idx")
	if err := os.MkdirAll(storeDir, 0o777); err != nil {
		t.Fatal(err)
	}

	opts := baseOpts()
	opts.MapFile, opts.Store, opts.StoreDir = mapFile, cliopt.StoreDisk, storeDir
	b, err := buildService(opts, []string{docFile})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(b.svc.Handler())
	cl := client.New(ts.URL)
	c0, err := cl.Clusters(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if c0.Type != "DISC" || c0.Live == 0 || len(c0.Clusters) == 0 {
		t.Fatalf("cold daemon clusters = %+v", c0)
	}
	if err := b.svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	b.cleanup()

	// Restart: same flags, no documents.
	b2, err := buildService(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.cleanup()
	defer b2.svc.Shutdown(context.Background())
	ts2 := httptest.NewServer(b2.svc.Handler())
	defer ts2.Close()
	cl2 := client.New(ts2.URL)
	c1, err := cl2.Clusters(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if c1.Live != c0.Live || len(c1.Clusters) != len(c0.Clusters) {
		t.Fatalf("restarted daemon serves %d live / %d clusters, built daemon had %d / %d",
			c1.Live, len(c1.Clusters), c0.Live, len(c0.Clusters))
	}

	// The boot-time rehydration replayed the persisted traces rather
	// than recomparing the corpus.
	m1, err := cl2.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m1.LastRun.TraceSource != "disk" || m1.LastRun.Patched == 0 {
		t.Errorf("restart rehydration last_run = %+v, want disk-trace replay", m1.LastRun)
	}

	var db bytes.Buffer
	if err := datagen.FreeDBToXML(datagen.FreeDB(30, 2031)[24:30]).WriteXML(&db); err != nil {
		t.Fatal(err)
	}
	ack, err := cl2.Submit(context.Background(), &api.UpdateRequest{
		Add: []api.UpdateDoc{{Name: "more", XML: db.String()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Epoch != 1 || !ack.Persisted {
		t.Fatalf("restarted daemon update ack = %+v", ack)
	}
	// The POSTed batch chains off the rehydration run's fresh traces.
	if ack.TraceSource != "memory" {
		t.Errorf("restarted update TraceSource = %q, want memory", ack.TraceSource)
	}

	// A daemon restart against a snapshot built for a different θtuple
	// must refuse rather than serve inconsistent indexes.
	wrongTheta := opts
	wrongTheta.TTuple = 0.3
	if _, err := buildService(wrongTheta, nil); err == nil || !strings.Contains(err.Error(), "ttuple") {
		t.Errorf("theta-mismatch restart err = %v", err)
	}
}

// TestBootLeavesStoreDirUntouched pins that a serve-without-documents
// boot only reads -store-dir: the zero-batch Update that rehydrates
// pairs and clusters replays the persisted traces and writes nothing,
// so consecutive boots leave every file byte-identical — the unmerged
// delta segment and the two-frame trace chain a POSTed batch left
// included — and each one still restores the traces.
func TestBootLeavesStoreDirUntouched(t *testing.T) {
	mapFile, docFile := writeFixtureFiles(t)
	storeDir := filepath.Join(t.TempDir(), "idx")
	if err := os.MkdirAll(storeDir, 0o777); err != nil {
		t.Fatal(err)
	}
	opts := baseOpts()
	opts.MapFile, opts.Store, opts.StoreDir = mapFile, cliopt.StoreDisk, storeDir
	cold, err := buildService(opts, []string{docFile})
	if err != nil {
		t.Fatal(err)
	}
	var db bytes.Buffer
	if err := datagen.FreeDBToXML(datagen.FreeDB(30, 2031)[24:25]).WriteXML(&db); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(cold.svc.Handler())
	ack, err := client.New(ts.URL).Submit(context.Background(), &api.UpdateRequest{
		Add: []api.UpdateDoc{{Name: "more", XML: db.String()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Persisted {
		t.Fatalf("cold daemon ack = %+v", ack)
	}
	if err := cold.svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	cold.cleanup()

	files := func() map[string]string {
		t.Helper()
		entries, err := os.ReadDir(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(storeDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(b)
		}
		return out
	}
	want := files()
	deltas := 0
	for name := range want {
		if strings.HasPrefix(name, "delta-") {
			deltas++
		}
	}
	if deltas == 0 {
		t.Fatal("fixture bug: the POSTed batch left no unmerged delta segment")
	}
	for boot := 1; boot <= 2; boot++ {
		b, err := buildService(opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		last := b.svc.Result()
		if err := b.svc.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		b.cleanup()
		if last.Stats.TraceSource != "disk" || last.Stats.Patched == 0 {
			t.Errorf("boot %d rehydrated with traces=%s patched=%d, want a disk-trace replay", boot, last.Stats.TraceSource, last.Stats.Patched)
		}
		got := files()
		for name, content := range want {
			if got[name] != content {
				t.Errorf("boot %d changed %s", boot, name)
			}
		}
		if len(got) != len(want) {
			t.Errorf("boot %d left %d files in the store directory, want %d", boot, len(got), len(want))
		}
	}
}

// TestBuildServeDist boots a distributed daemon over documents (the
// default two loopback members), applies an update and checks its
// volatile ack: a federation lives in memory, so nothing persists.
func TestBuildServeDist(t *testing.T) {
	mapFile, docFile := writeFixtureFiles(t)
	ctx := context.Background()

	opts := baseOpts()
	opts.MapFile, opts.Store = mapFile, cliopt.StoreDist
	b, err := buildService(opts, []string{docFile})
	if err != nil {
		t.Fatal(err)
	}
	defer b.cleanup()
	defer b.svc.Shutdown(ctx)
	ts := httptest.NewServer(b.svc.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)

	c0, err := cl.Clusters(ctx)
	if err != nil || c0.Live == 0 {
		t.Fatalf("clusters = %+v, %v", c0, err)
	}
	var db bytes.Buffer
	if err := datagen.FreeDBToXML(datagen.FreeDB(30, 2031)[24:30]).WriteXML(&db); err != nil {
		t.Fatal(err)
	}
	ack, err := cl.Submit(ctx, &api.UpdateRequest{
		Add: []api.UpdateDoc{{Name: "more", XML: db.String()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Epoch != 1 || ack.Persisted || ack.Durable || ack.Live <= c0.Live {
		t.Fatalf("dist ack = %+v, want a volatile epoch-1 ack growing %d live candidates", ack, c0.Live)
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Routing == nil || m.DurableAcks {
		t.Errorf("dist daemon metrics: routing %+v, durable acks %v", m.Routing, m.DurableAcks)
	}
}

// TestHTTPServerDropsStalledHeader: a client that sends half a request
// line and then nothing must not pin the daemon. The server hangs up
// once the header deadline passes, so the connection is gone by the
// time a drain starts and srv.Shutdown does not sit out its budget on
// it. Request bodies and responses stay unbounded — an update ack takes
// as long as the run it acknowledges.
func TestHTTPServerDropsStalledHeader(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("default server: ReadHeaderTimeout %v, IdleTimeout %v, want both set", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("default server: ReadTimeout %v, WriteTimeout %v would cut long update acks", srv.ReadTimeout, srv.WriteTimeout)
	}

	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HT")); err != nil {
		t.Fatal(err)
	}
	// Whatever the server says before it hangs up, it must hang up: the
	// read ends with the peer's close, not with our own deadline.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("server kept a connection with a half-sent header open past ReadHeaderTimeout")
		}
	}

	const budget = 10 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after the stalled client: %v", err)
	}
	if took := time.Since(start); took > budget/4 {
		t.Fatalf("Shutdown took %v of a %v budget", took, budget)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}
