// Command dogmatix runs XML duplicate detection on one or more XML
// documents, following the DogmatiX pipeline of the paper.
//
// Usage:
//
//	dogmatix -map mapping.txt -type MOVIE [-schema doc.xsd] \
//	         [-heuristic kd:6] [-ttuple 0.15] [-tcand 0.55] \
//	         [-filter] [-pairs] [-stages] [-workers 4] \
//	         [-store mem|disk|dist] \
//	         [-partitions 3 | -partition-addrs H1:P1,H2:P2] \
//	         [-store-dir DIR] [-reuse-index] \
//	         [-update] [-remove OBJECT-PATH]... \
//	         [-stream] doc1.xml [doc2.xml ...]
//
// The mapping file associates real-world types with schema XPaths, one
// type per line:
//
//	MOVIE  $doc/moviedoc/movie
//	TITLE  $doc/moviedoc/movie/title
//
// Without -schema, each document's schema is inferred from its instances.
//
// Storage backends (-store): mem is the single-map in-memory store;
// disk builds the indexes into odcodec segment files under -store-dir
// and serves queries from them, so the run's retained memory stays
// bounded by its caches and the indexes survive the process; dist
// federates the indexes across partition members behind the odrpc wire
// protocol — either -partitions in-process members each behind a
// loopback transport (the single-machine shape, full codec, no
// sockets), or the odrpc servers listed in -partition-addrs. All three
// backends produce identical output. The default resolves to dist when
// -partitions or -partition-addrs is set, and mem otherwise. A
// federation member failing or hanging mid-run fails the run with a
// typed partition error — never a silently incomplete result.
// -reuse-index and -update serve from single-directory disk snapshots
// and do not combine with -store dist (persist a federation with
// od.SavePartitioned).
//
// -reuse-index enables index persistence across runs: the fresh run
// saves the finalized indexes (stamped with a corpus fingerprint) into
// -store-dir, and any later run whose inputs, mapping, heuristic and
// θtuple match warm-starts from them — skipping schema inference,
// ingestion and index construction. -stages shows the warmstart stage
// when it hits.
//
// -stream ingests each document through the pull parser instead of
// materializing it: peak memory is bounded by the largest candidate
// subtree, not document size (the output is bit-identical either way;
// without -schema the file is read twice). Streaming only supports
// descendant description selections: combining -stream with an
// ancestor heuristic (ra:N) is rejected up front — see the ROADMAP's
// streaming-sources item. The result is the Fig. 3 dupcluster XML on
// stdout; -pairs additionally lists every detected pair with its
// similarity on stderr, and -stages prints per-stage timings.
//
// -update runs incremental detection against the persisted indexes in
// -store-dir instead of rebuilding them: the listed documents are
// ingested as *new* sources appended to the corpus, every -remove
// OBJECT-PATH deletes an existing candidate, and only the affected
// portion of the pipeline re-runs (delta index maintenance, scoped
// filter-bound recomputation, recomparison of affected pairs). The
// merged indexes are persisted back to -store-dir with a chained
// fingerprint, ready for the next -update run:
//
//	dogmatix -map m.txt -type DISC -store disk -store-dir idx first.xml
//	dogmatix -map m.txt -type DISC -update -store-dir idx \
//	         -remove '/freedb/disc[12]' corrections.xml
//
// The mapping, heuristic and -ttuple must match the ones the snapshot
// was built with (θtuple is verified against the stored indexes; the
// rest is the operator's contract). Output is rendered exactly like a
// fresh run over the updated corpus, and the incremental-equivalence
// suite pins it bit-identical to one.
//
// Two client modes talk to a running dogmatixd daemon instead of
// detecting locally (see clientmode.go and cmd/dogmatixd):
//
//	dogmatix query  -daemon http://HOST:PORT [-id N | -similar -type T -value V | -metrics | -health]
//	dogmatix submit -daemon http://HOST:PORT [-remove OBJECT-PATH]... [doc.xml ...]
//
// A third subcommand re-partitions a persisted federation in place of
// any re-ingestion (see rebalance.go):
//
//	dogmatix rebalance -from DIR -to ROOT -partitions N [-hash-seed S]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/od"
	"repro/internal/od/odcodec"
	"repro/internal/od/odrpc"
	"repro/internal/xmltree"
	"repro/internal/xsd"
)

func main() {
	// Client modes talk to a running dogmatixd daemon instead of
	// detecting locally; see clientmode.go.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "query":
			if err := runQuery(os.Args[2:], os.Stdout, os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "dogmatix:", err)
				os.Exit(1)
			}
			return
		case "submit":
			if err := runSubmit(os.Args[2:], os.Stdout, os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "dogmatix:", err)
				os.Exit(1)
			}
			return
		case "rebalance":
			if err := runRebalance(os.Args[2:], os.Stdout, os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "dogmatix:", err)
				os.Exit(1)
			}
			return
		}
	}
	var (
		mapFile    = flag.String("map", "", "mapping file (required)")
		typeName   = flag.String("type", "", "real-world type to deduplicate (required)")
		xsdFile    = flag.String("schema", "", "XSD schema file (default: infer per document)")
		heuristic  = flag.String("heuristic", "kd:6", "description heuristic spec (see internal/heuristics.ParseSpec)")
		ttuple     = flag.Float64("ttuple", 0.15, "OD tuple similarity threshold θtuple")
		tcand      = flag.Float64("tcand", 0.55, "duplicate classification threshold θcand")
		useFilter  = flag.Bool("filter", false, "enable the Step 4 object filter")
		showPairs  = flag.Bool("pairs", false, "list detected pairs with scores on stderr")
		stats      = flag.Bool("stats", false, "print run statistics on stderr")
		showStages = flag.Bool("stages", false, "print per-stage timings on stderr")
		store      = flag.String("store", "", "OD store backend: mem | disk | dist (default: dist when -partitions/-partition-addrs is set, else mem)")
		partitions = flag.Int("partitions", 0, "in-process partition count for the distributed store (loopback transports)")
		partAddrs  = flag.String("partition-addrs", "", "comma-separated odrpc server addresses for the distributed store")
		replicas   = flag.Int("replicas", 0, "loopback replica members per partition for the distributed store")
		repAddrs   = flag.String("replica-addrs", "", "odrpc replica addresses per partition: groups comma-separated and aligned with the partitions, members within a group separated by ';'")
		workers    = flag.Int("workers", 0, "worker goroutines for Steps 4/5 (0 = GOMAXPROCS)")
		storeDir   = flag.String("store-dir", "", "directory for disk-store segments / index snapshots")
		mmap       = flag.String("mmap", "auto", "disk-store segment access: auto (mmap with pread fallback) | on | off")
		reuseIndex = flag.Bool("reuse-index", false, "warm-start from a matching index snapshot in -store-dir (and save one after a fresh build)")
		format     = flag.String("format", "xml", "output format: xml (Fig. 3) | json | csv")
		stream     = flag.Bool("stream", false, "ingest documents through the pull parser (bounded memory) instead of materializing them")
		update     = flag.Bool("update", false, "incremental run: append the documents to (and apply -remove against) the persisted indexes in -store-dir")
		rpcTimeout = flag.Duration("rpc-timeout", defaultRPCTimeout, "per-call deadline on dist federation members, dialed and loopback alike (0 restores the default)")
	)
	var removePaths stringList
	flag.Var(&removePaths, "remove", "with -update: object path of a candidate to remove (repeatable)")
	flag.Parse()
	opts := options{
		mapFile: *mapFile, typeName: *typeName, xsdFile: *xsdFile,
		heuristic: *heuristic, ttuple: *ttuple, tcand: *tcand,
		useFilter: *useFilter, showPairs: *showPairs, stats: *stats,
		showStages: *showStages, store: *store,
		partitions: *partitions, partAddrs: *partAddrs,
		replicas: *replicas, replicaAddrs: *repAddrs,
		workers: *workers, storeDir: *storeDir, mmap: *mmap, reuseIndex: *reuseIndex,
		format: *format, stream: *stream,
		update: *update, removePaths: removePaths,
		rpcTimeout: *rpcTimeout,
	}
	if err := run(opts, flag.Args(), os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dogmatix:", err)
		os.Exit(1)
	}
}

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

type options struct {
	mapFile, typeName, xsdFile, heuristic string
	ttuple, tcand                         float64
	useFilter, showPairs, stats           bool
	showStages, stream, reuseIndex        bool
	update                                bool
	workers, partitions                   int
	replicas                              int
	store, storeDir, partAddrs            string
	replicaAddrs                          string
	mmap                                  string
	format                                string
	removePaths                           []string
	rpcTimeout                            time.Duration

	// mmapMode is the parsed -mmap value, resolved by validate.
	mmapMode odcodec.MmapMode
}

// diskOptions resolves the validated flags into the disk store's access
// options.
func (o *options) diskOptions() od.DiskOptions {
	return od.DiskOptions{Mmap: o.mmapMode}
}

// Store backend names accepted by -store.
const (
	storeMem  = "mem"
	storeDisk = "disk"
	storeDist = "dist"
)

// defaultRPCTimeout is the default -rpc-timeout: the per-call deadline
// set uniformly on every odrpc member the CLI constructs — dialed
// -partition-addrs clients and in-process loopback members alike, so a
// wedged backend surfaces as the typed partition error on either
// transport.
const defaultRPCTimeout = odrpc.DefaultTimeout

// validate checks every flag combination up front — before any file is
// opened or any pipeline stage runs — so misconfigurations surface as
// one-line errors instead of failures deep inside the run. It also
// resolves the defaults: an empty -store becomes dist when -partitions
// or -partition-addrs is set, and mem otherwise; -store dist without
// either partition flag gets 2 in-process partitions.
func (o *options) validate(docs []string) error {
	if o.mapFile == "" || o.typeName == "" {
		return fmt.Errorf("-map and -type are required")
	}
	if len(docs) == 0 && !(o.update && len(o.removePaths) > 0) {
		return fmt.Errorf("no input documents")
	}
	if len(o.removePaths) > 0 && !o.update {
		return fmt.Errorf("-remove only applies to -update runs")
	}
	if o.stream && specSelectsAncestors(o.heuristic) {
		return fmt.Errorf(
			"-stream cannot evaluate the ancestor selections of heuristic %q: streaming ingestion holds only the candidate subtree, so ra:N descriptions need a materialized document — drop -stream, or use a descendant heuristic (kd:N, rd:N); see ROADMAP.md, streaming sources", o.heuristic)
	}
	if o.update {
		if o.storeDir == "" {
			return fmt.Errorf("-update needs -store-dir pointing at a persisted index snapshot")
		}
		if o.reuseIndex {
			return fmt.Errorf("-update and -reuse-index are exclusive: an update run always starts from (and re-persists) the -store-dir snapshot")
		}
		switch o.store {
		case "", storeDisk:
			o.store = storeDisk
		default:
			return fmt.Errorf("-update serves from the persisted disk store; -store %q does not apply", o.store)
		}
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers %d is negative", o.workers)
	}
	if o.partitions < 0 {
		return fmt.Errorf("-partitions %d is negative", o.partitions)
	}
	if o.partitions > 0 && o.partAddrs != "" {
		return fmt.Errorf("-partitions and -partition-addrs are exclusive: in-process loopback members or remote servers, not both")
	}
	if o.replicas < 0 {
		return fmt.Errorf("-replicas %d is negative", o.replicas)
	}
	if o.replicas > 0 && o.replicaAddrs != "" {
		return fmt.Errorf("-replicas and -replica-addrs are exclusive: in-process loopback mirrors or remote servers, not both")
	}
	switch o.format {
	case "xml", "json", "csv":
	default:
		return fmt.Errorf("unknown -format %q (want xml, json, csv)", o.format)
	}
	if o.store == "" {
		if o.partitions > 0 || o.partAddrs != "" {
			o.store = storeDist
		} else {
			o.store = storeMem
		}
	}
	if o.store != storeDist && (o.partitions > 0 || o.partAddrs != "") {
		return fmt.Errorf("-partitions/-partition-addrs only apply to -store dist, not %q", o.store)
	}
	if o.store != storeDist && (o.replicas > 0 || o.replicaAddrs != "") {
		return fmt.Errorf("-replicas/-replica-addrs only apply to -store dist, not %q", o.store)
	}
	switch o.store {
	case storeMem, storeDisk:
	case storeDist:
		if o.reuseIndex {
			return fmt.Errorf("-reuse-index snapshots a single disk directory; it does not apply to -store dist (persist a federation with od.SavePartitioned)")
		}
		if o.storeDir != "" {
			return fmt.Errorf("-store-dir does not apply to -store dist")
		}
		if o.partitions == 0 && o.partAddrs == "" {
			o.partitions = 2
		}
	default:
		return fmt.Errorf("unknown -store %q (want %s, %s or %s)", o.store, storeMem, storeDisk, storeDist)
	}
	if o.store == storeDisk && o.storeDir == "" {
		return fmt.Errorf("-store disk needs -store-dir")
	}
	if o.reuseIndex && o.storeDir == "" {
		return fmt.Errorf("-reuse-index needs -store-dir")
	}
	if o.storeDir != "" && o.store != storeDisk && !o.reuseIndex {
		return fmt.Errorf("-store-dir is set but neither -store disk nor -reuse-index uses it")
	}
	if o.mmap == "" {
		o.mmap = "auto" // zero-value options behave like the flag default
	}
	mode, err := odcodec.ParseMmapMode(o.mmap)
	if err != nil {
		return fmt.Errorf("-mmap: %w", err)
	}
	o.mmapMode = mode
	if o.mmap != "auto" && o.store != storeDisk && !o.reuseIndex && !o.update {
		return fmt.Errorf("-mmap only applies when segment files are read: -store disk, -reuse-index or -update")
	}
	if o.rpcTimeout < 0 {
		return fmt.Errorf("-rpc-timeout %v is negative", o.rpcTimeout)
	}
	if o.rpcTimeout == 0 {
		o.rpcTimeout = defaultRPCTimeout // zero-value options behave like the flag default
	}
	if o.rpcTimeout != defaultRPCTimeout && o.store != storeDist {
		return fmt.Errorf("-rpc-timeout only applies to -store dist federation members")
	}
	return nil
}

// specSelectsAncestors reports whether a heuristic spec contains an
// ancestor selection (ra:N) in any of its OR-combined parts, looking
// through expN: prefixes and [condition] suffixes. Streaming ingestion
// cannot evaluate those — the check lets -stream fail fast instead of
// erroring mid-pipeline after schema inference.
func specSelectsAncestors(spec string) bool {
	for _, part := range strings.Split(spec, "+") {
		part = strings.TrimSpace(part)
		for strings.HasPrefix(part, "exp") {
			colon := strings.IndexByte(part, ':')
			if colon < 0 {
				break
			}
			part = part[colon+1:]
		}
		if strings.HasPrefix(part, "ra:") {
			return true
		}
	}
	return false
}

// newStore resolves the validated options into a store factory for
// core.Config; nil means the default MemStore. The dist backend is
// constructed eagerly — dialing remote members can fail, and a factory
// has no error channel — and is also returned directly so -stats can
// read the federation's routing and wire counters after the run.
func (o *options) newStore() (func() od.Store, *od.PartitionedStore, error) {
	switch o.store {
	case storeDisk:
		return func() od.Store { return od.NewDiskStoreWith(o.storeDir, o.diskOptions()) }, nil, nil
	case storeDist:
		fed, err := o.buildFederation()
		if err != nil {
			return nil, nil, err
		}
		return func() od.Store { return fed }, fed, nil
	}
	return nil, nil, nil
}

// buildFederation assembles the distributed store: odrpc clients for
// every -partition-addrs server, or -partitions in-process MemStore
// members each behind a loopback transport (full wire codec, no
// sockets).
func (o *options) buildFederation() (*od.PartitionedStore, error) {
	var parts []od.Partition
	if o.partAddrs != "" {
		for _, addr := range strings.Split(o.partAddrs, ",") {
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
			// The deadline is what turns a wedged remote member into the
			// documented typed partition error instead of a hung run. It
			// bounds every call including Finalize — whose reply only
			// arrives once the member finished building its index slice —
			// so it is generous; corpora whose member builds exceed it
			// should raise -rpc-timeout or drive the federation through
			// the od API directly.
			c.Timeout = o.rpcTimeout
			parts = append(parts, c)
		}
	} else {
		for i := 0; i < o.partitions; i++ {
			c := odrpc.NewLoopback(od.NewMemStore())
			// Loopback members get the same deadline as dialed ones: a
			// wedged in-process backend should surface as the typed
			// partition error, not a hung CLI.
			c.Timeout = o.rpcTimeout
			parts = append(parts, c)
		}
	}
	fed := od.NewPartitionedStore(parts, 0)
	// Replica members attach before the build so they simply ride the
	// write fan-out; every group member ends up bit-identical.
	groups, err := o.replicaGroups(len(parts))
	if err != nil {
		fed.Close()
		return nil, err
	}
	if groups != nil {
		if err := fed.AttachReplicas(groups); err != nil {
			for _, g := range groups {
				for _, p := range g {
					p.Close()
				}
			}
			fed.Close()
			return nil, err
		}
	}
	return fed, nil
}

// replicaGroups builds the replica member groups the flags describe:
// -replicas loopback MemStore mirrors per partition, or -replica-addrs
// dialed odrpc members (groups comma-separated and aligned with the
// partitions, members within a group separated by ';'; an empty group
// leaves that partition unreplicated). Returns nil when neither flag
// is set.
func (o *options) replicaGroups(nparts int) ([][]od.Partition, error) {
	if o.replicas > 0 {
		groups := make([][]od.Partition, nparts)
		for i := range groups {
			for r := 0; r < o.replicas; r++ {
				c := odrpc.NewLoopback(od.NewMemStore())
				c.Timeout = o.rpcTimeout
				groups[i] = append(groups[i], c)
			}
		}
		return groups, nil
	}
	if o.replicaAddrs == "" {
		return nil, nil
	}
	fields := strings.Split(o.replicaAddrs, ",")
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
			c.Timeout = o.rpcTimeout
			groups[i] = append(groups[i], c)
		}
	}
	return groups, nil
}

func run(opts options, docs []string, stdout, stderr io.Writer) error {
	if err := opts.validate(docs); err != nil {
		return err
	}

	mf, err := os.Open(opts.mapFile)
	if err != nil {
		return err
	}
	mapping, err := core.ParseMapping(mf)
	mf.Close()
	if err != nil {
		return err
	}

	h, err := heuristics.ParseSpec(opts.heuristic)
	if err != nil {
		return err
	}

	var schema *xsd.Schema
	if opts.xsdFile != "" {
		sf, err := os.Open(opts.xsdFile)
		if err != nil {
			return err
		}
		schema, err = xsd.Parse(sf)
		sf.Close()
		if err != nil {
			return err
		}
	}

	var inputs []core.SourceInput
	for _, path := range docs {
		if opts.stream {
			inputs = append(inputs, core.FileSource(path, schema))
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		doc, err := xmltree.Parse(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		inputs = append(inputs, core.Source{Name: path, Doc: doc, Schema: schema})
	}

	cfg := core.Config{
		Heuristic:  h,
		ThetaTuple: opts.ttuple,
		ThetaCand:  opts.tcand,
		UseFilter:  opts.useFilter,
		Workers:    opts.workers,
	}
	var fed *od.PartitionedStore // set for -store dist; -stats reads its counters
	if opts.update {
		// Update runs serve from the persisted snapshot and re-persist
		// the merged indexes when done. Incremental recording keeps the
		// replay traces of this run, and its snapshot stage persists
		// them next to the merged segments so the NEXT update — in this
		// process or after a restart — patches instead of recomparing.
		cfg.Snapshot = &core.SnapshotOptions{Dir: opts.storeDir, Save: true, Disk: opts.diskOptions()}
		cfg.Incremental = true
	} else {
		newStore, distFed, err := opts.newStore()
		if err != nil {
			return err
		}
		cfg.NewStore = newStore
		fed = distFed
		if opts.reuseIndex {
			cfg.Snapshot = &core.SnapshotOptions{Dir: opts.storeDir, Reuse: true, Save: true, Disk: opts.diskOptions()}
			// Record replay traces on the build too, so even the first
			// -update against this snapshot replays instead of
			// recomparing from scratch.
			cfg.Incremental = true
		}
	}
	det, err := core.NewDetector(mapping, cfg)
	if err != nil {
		return err
	}
	var res *core.Result
	if opts.update {
		res, err = runUpdate(opts, det, inputs)
	} else {
		res, err = det.DetectInputs(opts.typeName, inputs...)
	}
	if err != nil {
		return err
	}

	if opts.showPairs {
		for _, p := range res.Pairs {
			fmt.Fprintf(stderr, "pair %s <-> %s sim=%.3f\n",
				res.Candidates[p.I].Path, res.Candidates[p.J].Path, p.Score)
		}
	}
	if opts.showStages {
		for _, st := range res.Stages {
			fmt.Fprintf(stderr, "stage %-10s items=%-8d elapsed=%v\n",
				st.Name, st.Items, st.Elapsed)
		}
	}
	if opts.stats {
		replay := ""
		if res.Stats.TraceSource != "" {
			replay = fmt.Sprintf(" patched=%d traces=%s", res.Stats.Patched, res.Stats.TraceSource)
		}
		fmt.Fprintf(stderr,
			"candidates=%d pruned=%d compared=%d%s pairs=%d clusters=%d warm-start=%v elapsed=%v\n",
			res.Stats.Candidates, res.Stats.Pruned, res.Stats.Compared, replay,
			res.Stats.PairsDetected, len(res.Clusters), res.WarmStart, res.Stats.Elapsed)
		if fed != nil {
			rs := fed.RoutingStats()
			fmt.Fprintf(stderr, "dist routing: fanouts=%d member-queries=%d member-skips=%d exact-skips=%d\n",
				rs.SimFanouts, rs.MemberQueries, rs.MemberSkips, rs.ExactSkips)
			ws := fed.MemberWireStats()
			members := make([]string, 0, len(ws))
			for member := range ws {
				members = append(members, member)
			}
			sort.Strings(members)
			for _, member := range members {
				w := ws[member]
				fmt.Fprintf(stderr, "dist wire: member=%s round-trips=%d frames-out=%d frames-in=%d bytes-out=%d bytes-in=%d\n",
					member, w.RoundTrips, w.FramesOut, w.FramesIn, w.BytesOut, w.BytesIn)
			}
		}
	}
	switch opts.format {
	case "xml":
		return res.WriteXML(stdout)
	case "json":
		return res.WriteJSON(stdout)
	case "csv":
		return res.WritePairsCSV(stdout)
	default:
		return fmt.Errorf("unknown -format %q (want xml, json, csv)", opts.format)
	}
}

// runUpdate drives the incremental path: open the persisted snapshot
// (replaying any unmerged delta segments), adopt it, resolve the
// -remove paths to candidate IDs, and run Detector.Update over the new
// sources. Update's snapshot stage merges the result back to -store-dir.
func runUpdate(opts options, det *core.Detector, inputs []core.SourceInput) (*core.Result, error) {
	store, err := od.OpenDiskStoreWith(opts.storeDir, opts.diskOptions())
	if err != nil {
		return nil, fmt.Errorf("open index snapshot in %s: %w (build one first: -store disk -store-dir %s)",
			opts.storeDir, err, opts.storeDir)
	}
	if got := store.Theta(); got != opts.ttuple {
		return nil, fmt.Errorf("snapshot in %s was built for -ttuple %v, run requests %v", opts.storeDir, got, opts.ttuple)
	}
	prev, err := core.Adopt(opts.typeName, store)
	if err != nil {
		return nil, err
	}
	removeIDs, err := resolveRemovals(prev, store, opts.removePaths)
	if err != nil {
		return nil, err
	}
	return det.Update(prev, core.UpdateBatch{Add: inputs, Remove: removeIDs})
}

// resolveRemovals maps -remove object paths onto live candidate IDs.
// The same path can recur across sources, so a removal may qualify the
// source with an `N:` prefix ("1:/db/rec[3]" removes source 1's
// candidate); an unqualified path must be unambiguous.
func resolveRemovals(prev *core.Result, store od.MutableStore, paths []string) ([]int32, error) {
	var out []int32
	for _, spec := range paths {
		path, source := spec, -1
		if colon := strings.IndexByte(spec, ':'); colon > 0 {
			if n, err := strconv.Atoi(spec[:colon]); err == nil {
				source, path = n, spec[colon+1:]
			}
		}
		var matches []int32
		for id, c := range prev.Candidates {
			if c.Path == path && (source < 0 || c.Source == source) && store.Alive(int32(id)) {
				matches = append(matches, int32(id))
			}
		}
		switch len(matches) {
		case 0:
			return nil, fmt.Errorf("-remove %s: no live candidate has this object path", spec)
		case 1:
			out = append(out, matches[0])
		default:
			var srcs []string
			for _, id := range matches {
				srcs = append(srcs, strconv.Itoa(prev.Candidates[id].Source))
			}
			return nil, fmt.Errorf("-remove %s: ambiguous, candidates exist in sources %s — qualify as SOURCE:%s", spec, strings.Join(srcs, ", "), path)
		}
	}
	return out, nil
}
