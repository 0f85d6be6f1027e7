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

	Store      string
	Partitions int
	StoreDir   string
	ReuseIndex bool
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
	fs.StringVar(&o.Store, "store", "", "OD store backend: mem | disk | dist (default: dist when -partitions is set, else mem; a daemon serving without documents defaults to disk)")
	fs.IntVar(&o.Partitions, "partitions", 0, "in-process partition count for the distributed store (loopback transports; default 2 with -store dist)")
	fs.StringVar(&o.StoreDir, "store-dir", "", "directory for disk-store segments / index snapshots")
	fs.BoolVar(&o.ReuseIndex, "reuse-index", false, "warm-start from a matching index snapshot in -store-dir (and save one after a fresh build)")
}

// Validate checks the shared flag rules before anything is opened and
// resolves the shared defaults: an empty Store becomes dist when
// -partitions is set and mem otherwise, and dist without -partitions
// gets 2 in-process partitions. A binary that defaults Store otherwise
// sets it before calling Validate.
func (o *Options) Validate() error {
	if o.MapFile == "" || o.TypeName == "" {
		return errors.New("-map and -type are required")
	}
	for _, c := range []struct {
		flag string
		n    int
	}{{"-workers", o.Workers}, {"-partitions", o.Partitions}} {
		if c.n < 0 {
			return fmt.Errorf("%s %d cannot be negative", c.flag, c.n)
		}
	}
	partitioned := o.Partitions > 0
	if o.Store == "" {
		o.Store = StoreMem
		if partitioned {
			o.Store = StoreDist
		}
	}
	switch o.Store {
	case StoreMem, StoreDisk:
		if partitioned {
			return fmt.Errorf("-partitions only applies to -store dist, not %q", o.Store)
		}
	case StoreDist:
		if o.ReuseIndex {
			return errors.New("-reuse-index snapshots a single disk directory; it does not apply to -store dist")
		}
		if o.StoreDir != "" {
			return errors.New("-store-dir does not apply to -store dist: a federation lives in memory")
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
// eagerly and also returned, for its counters and its Close: -partitions
// in-process MemStore members, each behind a loopback transport (full
// wire codec, no sockets) under odrpc.DefaultTimeout, so a wedged
// member surfaces as the typed partition error.
func (o *Options) NewStore() (func() od.Store, *od.PartitionedStore) {
	switch o.Store {
	case StoreDisk:
		dir := o.StoreDir
		return func() od.Store { return od.NewDiskStore(dir) }, nil
	case StoreDist:
		parts := make([]od.Partition, o.Partitions)
		for i := range parts {
			c := odrpc.NewLoopback(od.NewMemStore())
			c.Timeout = odrpc.DefaultTimeout
			parts[i] = c
		}
		fed := od.NewPartitionedStore(parts, 0)
		return func() od.Store { return fed }, fed
	}
	return nil, nil
}
