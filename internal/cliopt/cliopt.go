// Package cliopt is the command line the dogmatix CLI and the dogmatixd
// daemon share: the detection and store flags, the rules that validate
// them, loading the files they name, and building the store they
// select. Each binary registers its own flags and checks its own rules
// on top, so a shared flag reads, validates and fails the same way in
// both.
package cliopt

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/od"
	"repro/internal/od/odrpc"
	"repro/internal/xmltree"
	"repro/internal/xsd"
)

// Store backend names accepted by -store.
const (
	StoreMem  = "mem"
	StoreDisk = "disk"
	StoreDist = "dist"
)

// Options holds the shared flags. Zero-valued fields validate like the
// flag defaults, except MapFile and TypeName, which are required.
type Options struct {
	MapFile, TypeName, XSDFile, Heuristic string
	TTuple, TCand                         float64
	UseFilter                             bool
	Workers                               int

	Store                        string
	Partitions, Replicas         int
	PartitionAddrs, ReplicaAddrs string
	StoreDir                     string
	ReuseIndex                   bool
	RPCTimeout                   time.Duration
}

// Register defines the shared flags on fs, bound to o's fields.
func (o *Options) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.MapFile, "map", "", "mapping file (required)")
	fs.StringVar(&o.TypeName, "type", "", "real-world type to deduplicate (required)")
	fs.StringVar(&o.XSDFile, "schema", "", "XSD schema file (default: infer per document)")
	fs.StringVar(&o.Heuristic, "heuristic", "kd:6", "description heuristic spec (see internal/heuristics.ParseSpec)")
	fs.Float64Var(&o.TTuple, "ttuple", 0.15, "OD tuple similarity threshold θtuple")
	fs.Float64Var(&o.TCand, "tcand", 0.55, "duplicate classification threshold θcand")
	fs.BoolVar(&o.UseFilter, "filter", false, "enable the Step 4 object filter")
	fs.IntVar(&o.Workers, "workers", 0, "worker goroutines for Steps 4/5 (0 = GOMAXPROCS)")
	fs.StringVar(&o.Store, "store", "", "OD store backend: mem | disk | dist (default: dist when -partitions/-partition-addrs is set, else mem; a daemon serving without documents defaults to disk, or dist with -snapshot-root)")
	fs.IntVar(&o.Partitions, "partitions", 0, "in-process partition count for the distributed store (loopback transports)")
	fs.StringVar(&o.PartitionAddrs, "partition-addrs", "", "comma-separated odrpc server addresses for the distributed store")
	fs.IntVar(&o.Replicas, "replicas", 0, "loopback replica members per partition for the distributed store")
	fs.StringVar(&o.ReplicaAddrs, "replica-addrs", "", "odrpc replica addresses per partition: groups comma-separated and aligned with the partitions, members within a group separated by ';'")
	fs.StringVar(&o.StoreDir, "store-dir", "", "directory for disk-store segments / index snapshots")
	fs.BoolVar(&o.ReuseIndex, "reuse-index", false, "warm-start from a matching index snapshot in -store-dir (and save one after a fresh build)")
	fs.DurationVar(&o.RPCTimeout, "rpc-timeout", odrpc.DefaultTimeout, "per-call deadline on dist federation members, dialed and loopback alike (0 restores the default)")
}

// Validate checks the shared flag rules before anything is opened and
// resolves the shared defaults: an empty Store becomes dist when
// -partitions or -partition-addrs is set and mem otherwise, dist
// without either gets 2 in-process partitions, and a zero RPCTimeout
// becomes odrpc.DefaultTimeout. A binary that defaults Store otherwise
// sets it before calling Validate.
func (o *Options) Validate() error {
	if o.MapFile == "" || o.TypeName == "" {
		return errors.New("-map and -type are required")
	}
	for _, c := range []struct {
		flag string
		n    int
	}{{"-workers", o.Workers}, {"-partitions", o.Partitions}, {"-replicas", o.Replicas}} {
		if c.n < 0 {
			return fmt.Errorf("%s %d cannot be negative", c.flag, c.n)
		}
	}
	partitioned := o.Partitions > 0 || o.PartitionAddrs != ""
	if o.Partitions > 0 && o.PartitionAddrs != "" {
		return errors.New("-partitions and -partition-addrs are exclusive: in-process loopback members or remote servers, not both")
	}
	if o.Replicas > 0 && o.ReplicaAddrs != "" {
		return errors.New("-replicas and -replica-addrs are exclusive: in-process loopback mirrors or remote servers, not both")
	}
	if o.RPCTimeout < 0 {
		return fmt.Errorf("-rpc-timeout %v is negative", o.RPCTimeout)
	}
	if o.RPCTimeout == 0 {
		o.RPCTimeout = odrpc.DefaultTimeout
	}
	if o.Store == "" {
		o.Store = StoreMem
		if partitioned {
			o.Store = StoreDist
		}
	}
	switch o.Store {
	case StoreMem, StoreDisk:
		switch {
		case partitioned:
			return fmt.Errorf("-partitions/-partition-addrs only apply to -store dist, not %q", o.Store)
		case o.Replicas > 0 || o.ReplicaAddrs != "":
			return fmt.Errorf("-replicas/-replica-addrs only apply to -store dist, not %q", o.Store)
		case o.RPCTimeout != odrpc.DefaultTimeout:
			return fmt.Errorf("-rpc-timeout only applies to -store dist, not %q", o.Store)
		}
	case StoreDist:
		if o.ReuseIndex {
			return errors.New("-reuse-index snapshots a single disk directory; it does not apply to -store dist (a federation persists under dogmatixd -snapshot-root)")
		}
		if o.StoreDir != "" {
			return errors.New("-store-dir does not apply to -store dist (a federation persists under dogmatixd -snapshot-root)")
		}
		if !partitioned {
			o.Partitions = 2
		}
	default:
		return fmt.Errorf("unknown -store %q (want %s, %s or %s)", o.Store, StoreMem, StoreDisk, StoreDist)
	}
	if o.Store == StoreDisk && o.StoreDir == "" {
		return errors.New("-store disk needs -store-dir")
	}
	if o.ReuseIndex && o.StoreDir == "" {
		return errors.New("-reuse-index needs -store-dir")
	}
	if o.StoreDir != "" && o.Store != StoreDisk && !o.ReuseIndex {
		return errors.New("-store-dir is set but neither -store disk nor -reuse-index uses it")
	}
	return nil
}

// Load reads the mapping, heuristic and schema the options name and
// returns the detection configuration they make (store unset), with the
// schema, nil when it is inferred per document.
func (o *Options) Load() (*core.Mapping, core.Config, *xsd.Schema, error) {
	var cfg core.Config
	mf, err := os.Open(o.MapFile)
	if err != nil {
		return nil, cfg, nil, err
	}
	mapping, err := core.ParseMapping(mf)
	mf.Close()
	if err != nil {
		return nil, cfg, nil, err
	}
	h, err := heuristics.ParseSpec(o.Heuristic)
	if err != nil {
		return nil, cfg, nil, err
	}
	var schema *xsd.Schema
	if o.XSDFile != "" {
		sf, err := os.Open(o.XSDFile)
		if err != nil {
			return nil, cfg, nil, err
		}
		schema, err = xsd.Parse(sf)
		sf.Close()
		if err != nil {
			return nil, cfg, nil, err
		}
	}
	cfg = core.Config{Heuristic: h, ThetaTuple: o.TTuple, ThetaCand: o.TCand, UseFilter: o.UseFilter, Workers: o.Workers}
	return mapping, cfg, schema, nil
}

// ParseDocs materializes each document as a source under schema.
func ParseDocs(docs []string, schema *xsd.Schema) ([]core.SourceInput, error) {
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
	return inputs, nil
}

// AdoptSnapshot opens the index snapshot in -store-dir, checks that it
// was built for -ttuple, and adopts it for -type. The caller owns the
// returned store.
func (o *Options) AdoptSnapshot() (*od.DiskStore, *core.Result, error) {
	ds, err := od.OpenDiskStore(o.StoreDir)
	if err != nil {
		return nil, nil, fmt.Errorf("open index snapshot in %s: %w (build one first: dogmatix -store disk -store-dir %s)",
			o.StoreDir, err, o.StoreDir)
	}
	if got := ds.Theta(); got != o.TTuple {
		ds.Close()
		return nil, nil, fmt.Errorf("snapshot in %s was built for -ttuple %v, this run requests %v", o.StoreDir, got, o.TTuple)
	}
	res, err := core.Adopt(o.TypeName, ds)
	if err != nil {
		ds.Close()
		return nil, nil, err
	}
	return ds, res, nil
}

// NewStore resolves the validated options into core.Config's store
// factory; nil means the default MemStore. The dist backend is built
// eagerly — dialing remote members can fail, and a factory has no
// error channel — and is also returned, for its counters and its Close.
func (o *Options) NewStore() (func() od.Store, *od.PartitionedStore, error) {
	switch o.Store {
	case StoreDisk:
		dir := o.StoreDir
		return func() od.Store { return od.NewDiskStore(dir) }, nil, nil
	case StoreDist:
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
// sockets), with the flag-described replicas attached.
func (o *Options) buildFederation() (*od.PartitionedStore, error) {
	var parts []od.Partition
	if o.PartitionAddrs == "" {
		for i := 0; i < o.Partitions; i++ {
			parts = append(parts, o.loopback())
		}
	} else {
		for _, addr := range strings.Split(o.PartitionAddrs, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				closeAll(parts)
				return nil, errors.New("-partition-addrs contains an empty address")
			}
			c, err := o.dial(addr)
			if err != nil {
				closeAll(parts)
				return nil, err
			}
			parts = append(parts, c)
		}
	}
	fed := od.NewPartitionedStore(parts, 0)
	// Replicas attached before the build ride the write fan-out, so
	// every group member ends up bit-identical.
	if err := o.AttachReplicas(fed); err != nil {
		fed.Close()
		return nil, err
	}
	return fed, nil
}

// AttachReplicas wires the replica groups the flags describe into fed:
// -replicas loopback MemStore mirrors per partition, or -replica-addrs
// dialed members (groups comma-separated and aligned with the
// partitions, members within a group separated by ';'; an empty group
// leaves that partition unreplicated). On a finalized federation each
// replica is hydrated from its group. A failure leaves fed serving as
// before and closes the replica connections.
func (o *Options) AttachReplicas(fed *od.PartitionedStore) error {
	if o.Replicas == 0 && o.ReplicaAddrs == "" {
		return nil
	}
	n := fed.NumPartitions()
	groups := make([][]od.Partition, n)
	closeGroups := func() {
		for _, g := range groups {
			closeAll(g)
		}
	}
	if o.Replicas > 0 {
		for i := range groups {
			for r := 0; r < o.Replicas; r++ {
				groups[i] = append(groups[i], o.loopback())
			}
		}
	} else {
		fields := strings.Split(o.ReplicaAddrs, ",")
		if len(fields) != n {
			return fmt.Errorf("-replica-addrs lists %d groups for %d partitions", len(fields), n)
		}
		for i, grp := range fields {
			for _, addr := range strings.Split(grp, ";") {
				if addr = strings.TrimSpace(addr); addr == "" {
					continue
				}
				c, err := o.dial(addr)
				if err != nil {
					closeGroups()
					return err
				}
				groups[i] = append(groups[i], c)
			}
		}
	}
	if err := fed.AttachReplicas(groups); err != nil {
		closeGroups()
		return err
	}
	return nil
}

// dial connects to one odrpc member under -rpc-timeout. The deadline
// turns a wedged remote member into the typed partition error instead
// of a hung run. It bounds every call including Finalize, whose reply
// only arrives once the member has built its index slice, so it is
// generous; corpora whose member builds exceed it should raise
// -rpc-timeout or drive the federation through the od API directly.
func (o *Options) dial(addr string) (od.Partition, error) {
	c, err := odrpc.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.Timeout = o.RPCTimeout
	return c, nil
}

// loopback returns an in-process MemStore member behind a loopback
// transport, under the same deadline as dialed members: a wedged
// in-process backend surfaces as the typed partition error too.
func (o *Options) loopback() od.Partition {
	c := odrpc.NewLoopback(od.NewMemStore())
	c.Timeout = o.RPCTimeout
	return c
}

func closeAll(parts []od.Partition) {
	for _, p := range parts {
		p.Close()
	}
}
