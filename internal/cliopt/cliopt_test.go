package cliopt

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestValidate pins the shared flag rules both binaries run: every
// rejected combination with the message substring the binaries' own
// matrices assert, and the defaults each valid combination resolves to.
func TestValidate(t *testing.T) {
	cases := []struct {
		name           string
		mutate         func(*Options)
		wantErr        string // substring; "" = valid
		wantStore      string
		wantPartitions int
	}{
		{name: "defaults-mem", wantStore: StoreMem},
		{name: "partitions-imply-dist", mutate: func(o *Options) { o.Partitions = 3 }, wantStore: StoreDist, wantPartitions: 3},
		{name: "dist-defaults-two-partitions", mutate: func(o *Options) { o.Store = StoreDist }, wantStore: StoreDist, wantPartitions: 2},
		{name: "disk-with-dir", mutate: func(o *Options) { o.Store = StoreDisk; o.StoreDir = "d" }, wantStore: StoreDisk},
		{name: "mem-reuse-index", mutate: func(o *Options) { o.ReuseIndex = true; o.StoreDir = "d" }, wantStore: StoreMem},
		{name: "missing-map", mutate: func(o *Options) { o.MapFile = "" }, wantErr: "-map and -type are required"},
		{name: "missing-type", mutate: func(o *Options) { o.TypeName = "" }, wantErr: "-map and -type are required"},
		{name: "negative-workers", mutate: func(o *Options) { o.Workers = -1 }, wantErr: "-workers -1 cannot be negative"},
		{name: "negative-partitions", mutate: func(o *Options) { o.Partitions = -2 }, wantErr: "-partitions -2 cannot be negative"},
		{name: "unknown-store", mutate: func(o *Options) { o.Store = "sharded" }, wantErr: `unknown -store "sharded" (want mem, disk or dist)`},
		{name: "partitions-on-mem", mutate: func(o *Options) { o.Store = StoreMem; o.Partitions = 2 }, wantErr: "-partitions only applies to -store dist"},
		{name: "dist-reuse-index", mutate: func(o *Options) { o.Store = StoreDist; o.ReuseIndex = true; o.StoreDir = "d" }, wantErr: "-reuse-index snapshots a single disk directory; it does not apply to -store dist"},
		{name: "dist-store-dir", mutate: func(o *Options) { o.Store = StoreDist; o.StoreDir = "d" }, wantErr: "-store-dir does not apply to -store dist"},
		{name: "disk-without-dir", mutate: func(o *Options) { o.Store = StoreDisk }, wantErr: "-store disk needs -store-dir"},
		{name: "reuse-without-dir", mutate: func(o *Options) { o.ReuseIndex = true }, wantErr: "-reuse-index needs -store-dir"},
		{name: "stray-store-dir", mutate: func(o *Options) { o.StoreDir = "d" }, wantErr: "-store-dir is set but neither -store disk nor -reuse-index uses it"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := Options{MapFile: "m.txt", TypeName: "T"}
			if tc.mutate != nil {
				tc.mutate(&o)
			}
			err := o.Validate()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Validate() = %v", err)
			}
			if o.Store != tc.wantStore || o.Partitions != tc.wantPartitions {
				t.Fatalf("resolved -store %q with %d partitions, want %q with %d", o.Store, o.Partitions, tc.wantStore, tc.wantPartitions)
			}
		})
	}

	// The deleted federation flags (dialed members, replicas, the
	// member deadline) fail at parse time, before validation.
	for name, args := range map[string][]string{
		"addrs-imply-dist":     {"-partition-addrs", "h1:7001,h2:7001"},
		"addrs-on-disk":        {"-store", "disk", "-store-dir", "d", "-partition-addrs", "h:1"},
		"partitions-and-addrs": {"-partitions", "2", "-partition-addrs", "h:1"},
		"negative-replicas":    {"-replicas", "-1"},
		"replicas-on-mem":      {"-store", "mem", "-replicas", "1"},
		"replicas-and-addrs":   {"-replicas", "1", "-replica-addrs", "h:1"},
		"dist-rpc-timeout":     {"-partitions", "2", "-rpc-timeout", "1s"},
		"negative-rpc-timeout": {"-partitions", "2", "-rpc-timeout", "-1s"},
		"rpc-timeout-on-mem":   {"-rpc-timeout", "1m"},
		"rpc-timeout-on-disk":  {"-store", "disk", "-store-dir", "d", "-rpc-timeout", "1m"},
	} {
		t.Run(name, func(t *testing.T) {
			var o Options
			fs := flag.NewFlagSet("shared", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			o.Register(fs)
			args = append([]string{"-map", "m.txt", "-type", "T"}, args...)
			if err := fs.Parse(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
				t.Fatalf("parse %v = %v, want the undefined-flag error", args, err)
			}
		})
	}
}

// TestRegisterDefaults: the registered flags carry the documented
// defaults, which validate to a MemStore run, and the deleted store
// flags stay deleted.
func TestRegisterDefaults(t *testing.T) {
	var o Options
	fs := flag.NewFlagSet("shared", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.Register(fs)
	if err := fs.Parse([]string{"-map", "m.txt", "-type", "T"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.Store != StoreMem || o.Heuristic != "kd:6" || o.TTuple != 0.15 || o.TCand != 0.55 {
		t.Fatalf("defaults resolved to %+v", o)
	}
	for _, removed := range []string{"mmap", "spill-ods", "partition-addrs", "replicas", "replica-addrs", "rpc-timeout"} {
		if fs.Lookup(removed) != nil {
			t.Errorf("-%s is registered", removed)
		}
	}
}
