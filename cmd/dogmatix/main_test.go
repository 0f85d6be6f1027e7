package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliopt"
	"repro/internal/od"
	"repro/internal/od/odcodec"
)

// TestValidateFlagCombinations pins the upfront CLI validation: every
// bad combination fails with a one-line error before any file opens,
// and the legacy defaults resolve as documented.
func TestValidateFlagCombinations(t *testing.T) {
	base := options{Options: cliopt.Options{MapFile: "m.txt", TypeName: "T"}, format: "xml"}
	docs := []string{"a.xml"}

	cases := []struct {
		name    string
		mutate  func(*options)
		docs    []string
		wantErr string
	}{
		{"missing-map", func(o *options) { o.MapFile = "" }, docs, "-map and -type"},
		{"missing-type", func(o *options) { o.TypeName = "" }, docs, "-map and -type"},
		{"no-docs", func(o *options) {}, nil, "no input documents"},
		{"unknown-subcommand", func(o *options) { o.MapFile, o.TypeName = "", "" }, []string{"rebalance", "-map", "m.txt", "-type", "T"},
			`unknown subcommand "rebalance" (want query or submit; flags go before the documents)`},
		{"negative-workers", func(o *options) { o.Workers = -1 }, docs, "-workers"},
		{"bad-format", func(o *options) { o.format = "yaml" }, docs, "-format"},
		{"bad-store", func(o *options) { o.Store = "redis" }, docs, "unknown -store"},
		{"sharded-store-removed", func(o *options) { o.Store = "sharded" }, docs, `unknown -store "sharded" (want mem, disk or dist)`},
		{"disk-without-dir", func(o *options) { o.Store = "disk" }, docs, "-store disk needs -store-dir"},
		{"reuse-without-dir", func(o *options) { o.ReuseIndex = true }, docs, "-reuse-index needs -store-dir"},
		{"dir-without-user", func(o *options) { o.StoreDir = "d" }, docs, "-store-dir is set but"},
		{"negative-partitions", func(o *options) { o.Partitions = -2 }, docs, "-partitions"},
		{"partitions-with-mem", func(o *options) { o.Store = "mem"; o.Partitions = 2 }, docs, "only applies to -store dist"},
		{"dist-with-reuse", func(o *options) { o.Store = "dist"; o.ReuseIndex = true }, docs, "does not apply to -store dist"},
		{"dist-with-dir", func(o *options) { o.Store = "dist"; o.StoreDir = "d" }, docs, "-store-dir does not apply"},
		{"dist-with-update", func(o *options) { o.Store = "dist"; o.update = true; o.StoreDir = "d" }, docs, "does not apply"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := base
			tc.mutate(&o)
			err := o.validate(tc.docs)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}

	// The deleted -mmap flag fails at parse time, before validation.
	for name, args := range map[string][]string{
		"bad-mmap":          {"-store", "disk", "-store-dir", "d", "-mmap", "sometimes", "a.xml"},
		"mmap-without-disk": {"-mmap", "on", "a.xml"},
	} {
		t.Run(name, func(t *testing.T) {
			var o options
			fs := flag.NewFlagSet("dogmatix", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			o.register(fs)
			if err := fs.Parse(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -mmap") {
				t.Fatalf("parse %v = %v, want the undefined-flag error", args, err)
			}
		})
	}

	// So do the deleted federation flags: dialed members and the member
	// deadline.
	for name, c := range map[string]struct {
		flag string
		args []string
	}{
		"partitions-and-addrs":     {"partition-addrs", []string{"-partitions", "2", "-partition-addrs", "h:1", "a.xml"}},
		"addrs-with-disk":          {"partition-addrs", []string{"-store", "disk", "-store-dir", "d", "-partition-addrs", "h:1", "a.xml"}},
		"replicas-on-dist":         {"replicas", []string{"-store", "dist", "-replicas", "1", "a.xml"}},
		"replica-addrs-on-dist":    {"replica-addrs", []string{"-store", "dist", "-replica-addrs", "h:1", "a.xml"}},
		"negative-rpc-timeout":     {"rpc-timeout", []string{"-partitions", "2", "-rpc-timeout", "-1s", "a.xml"}},
		"rpc-timeout-without-dist": {"rpc-timeout", []string{"-rpc-timeout", "1m", "a.xml"}},
		"rpc-timeout-with-disk":    {"rpc-timeout", []string{"-store", "disk", "-store-dir", "d", "-rpc-timeout", "1m", "a.xml"}},
	} {
		t.Run(name, func(t *testing.T) {
			var o options
			fs := flag.NewFlagSet("dogmatix", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			o.register(fs)
			if err := fs.Parse(c.args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+c.flag) {
				t.Fatalf("parse %v = %v, want the undefined-flag error for -%s", c.args, err, c.flag)
			}
		})
	}

	t.Run("defaults-resolve", func(t *testing.T) {
		o := base
		if err := o.validate(docs); err != nil || o.Store != cliopt.StoreMem {
			t.Fatalf("empty -store resolved to %q (%v), want mem", o.Store, err)
		}
		o = base
		o.Store = cliopt.StoreDisk
		o.StoreDir = "d"
		if err := o.validate(docs); err != nil {
			t.Fatalf("valid disk config rejected: %v", err)
		}
		o = base
		o.Partitions = 3
		if err := o.validate(docs); err != nil || o.Store != cliopt.StoreDist {
			t.Fatalf("-partitions 3 resolved to %q (%v), want dist", o.Store, err)
		}
		o = base
		o.Store = cliopt.StoreDist
		if err := o.validate(docs); err != nil || o.Partitions != 2 {
			t.Fatalf("-store dist resolved to %d partitions (%v), want 2", o.Partitions, err)
		}
	})
}

// TestRunDiskStoreAndReuse drives the CLI end to end twice against a
// tiny corpus: the first run builds on the disk backend and saves a
// stamped snapshot, the second warm-starts from it; both emit the same
// dupcluster XML.
func TestRunDiskStoreAndReuse(t *testing.T) {
	dir := t.TempDir()
	docPath := filepath.Join(dir, "db.xml")
	mapPath := filepath.Join(dir, "map.txt")
	storeDir := filepath.Join(dir, "store")
	const doc = `<db>
  <rec><name>Alpha Beta</name><id>7</id></rec>
  <rec><name>Alpha Beta</name><id>7</id></rec>
  <rec><name>Gamma Delta</name><id>3</id></rec>
</db>`
	if err := os.WriteFile(docPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mapPath, []byte("REC /db/rec\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := options{
		Options: cliopt.Options{
			MapFile: mapPath, TypeName: "REC", Heuristic: "rd:1",
			TTuple: 0.30, TCand: 0.55,
			Store: cliopt.StoreDisk, StoreDir: storeDir, ReuseIndex: true,
		},
		format: "xml", stats: true,
	}

	var out1, err1 bytes.Buffer
	if err := run(opts, []string{docPath}, &out1, &err1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(err1.String(), "warm-start=false") {
		t.Fatalf("first run stats: %s", err1.String())
	}
	if !strings.Contains(out1.String(), "dupcluster") {
		t.Fatalf("no cluster output: %s", out1.String())
	}

	var out2, err2 bytes.Buffer
	if err := run(opts, []string{docPath}, &out2, &err2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(err2.String(), "warm-start=true") {
		t.Fatalf("second run did not warm-start: %s", err2.String())
	}
	if out1.String() != out2.String() {
		t.Fatalf("warm output diverges:\n first: %s\nsecond: %s", out1.String(), out2.String())
	}
}

// TestStreamRejectsAncestorHeuristics pins the fail-fast satellite: the
// combination -stream + ra:N must error at flag validation — before any
// input file is even opened — with a message naming the limitation.
// Passing a nonexistent document proves no file access happened.
func TestStreamRejectsAncestorHeuristics(t *testing.T) {
	for _, spec := range []string{"ra:1", "kd:6+ra:2", "exp5:ra:1", "rd:1+exp3:ra:2[cme]"} {
		opts := options{
			Options: cliopt.Options{MapFile: "map.txt", TypeName: "T", Heuristic: spec},
			format:  "xml", stream: true,
		}
		err := opts.validate([]string{"does-not-exist.xml"})
		if err == nil || !strings.Contains(err.Error(), "ROADMAP") {
			t.Fatalf("spec %q: validate() = %v, want ancestor-selection error naming the ROADMAP item", spec, err)
		}
	}
	// The same specs without -stream stay valid, and descendant
	// heuristics stream fine.
	for _, tc := range []struct {
		spec   string
		stream bool
	}{{"ra:1", false}, {"kd:6", true}, {"rd:2+kd:3[csdt]", true}} {
		opts := options{
			Options: cliopt.Options{MapFile: "map.txt", TypeName: "T", Heuristic: tc.spec},
			format:  "xml", stream: tc.stream,
		}
		if err := opts.validate([]string{"doc.xml"}); err != nil {
			t.Fatalf("spec %q stream=%v: unexpected error %v", tc.spec, tc.stream, err)
		}
	}
}

// TestUpdateFlagValidation pins the -update flag matrix.
func TestUpdateFlagValidation(t *testing.T) {
	base := options{Options: cliopt.Options{MapFile: "m.txt", TypeName: "T", StoreDir: "d"}, format: "xml", update: true}
	cases := []struct {
		name    string
		mutate  func(*options)
		docs    []string
		wantErr string
	}{
		{"no-dir", func(o *options) { o.StoreDir = "" }, []string{"a.xml"}, "-update needs -store-dir"},
		{"with-reuse", func(o *options) { o.ReuseIndex = true }, []string{"a.xml"}, "exclusive"},
		{"mem-store", func(o *options) { o.Store = "mem" }, []string{"a.xml"}, "does not apply"},
		{"no-work", func(o *options) {}, nil, "no input documents"},
		{"remove-without-update", func(o *options) { o.update = false; o.StoreDir = "" }, []string{"a.xml"}, "-remove only applies"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := base
			if tc.name == "remove-without-update" {
				o.removePaths = []string{"/db/rec[1]"}
			}
			tc.mutate(&o)
			err := o.validate(tc.docs)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
	t.Run("removal-only-ok", func(t *testing.T) {
		o := base
		o.removePaths = []string{"/db/rec[1]"}
		if err := o.validate(nil); err != nil || o.Store != cliopt.StoreDisk {
			t.Fatalf("removal-only update: store=%q err=%v", o.Store, err)
		}
	})
}

// TestRunUpdateEndToEnd drives the full CLI workflow: fresh disk build,
// then an -update run that appends a document and removes a candidate,
// and checks the output equals a from-scratch run over the edited
// corpus. A second, removal-only update exercises the re-persisted
// (merged) snapshot.
func TestRunUpdateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "map.txt")
	storeDir := filepath.Join(dir, "store")
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := os.WriteFile(mapPath, []byte("REC /db/rec\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	doc1 := write("d1.xml", `<db>
  <rec><name>Alpha Beta</name><id>7</id></rec>
  <rec><name>Gamma Delta</name><id>3</id></rec>
  <rec><name>Stale Entry</name><id>9</id></rec>
</db>`)
	doc2 := write("d2.xml", `<db>
  <rec><name>Alpha Beta</name><id>7</id></rec>
  <rec><name>Epsilon</name><id>4</id></rec>
</db>`)
	// The edited corpus a from-scratch run sees: doc1 without its
	// removed trailing record, plus doc2.
	doc1Trimmed := write("d1-trimmed.xml", `<db>
  <rec><name>Alpha Beta</name><id>7</id></rec>
  <rec><name>Gamma Delta</name><id>3</id></rec>
</db>`)

	base := options{
		Options: cliopt.Options{MapFile: mapPath, TypeName: "REC", Heuristic: "rd:1", TTuple: 0.30, TCand: 0.55},
		format:  "xml",
	}

	fresh := base
	fresh.Store = cliopt.StoreDisk
	fresh.StoreDir = storeDir
	var out bytes.Buffer
	if err := run(fresh, []string{doc1}, &out, &out); err != nil {
		t.Fatal(err)
	}

	upd := base
	upd.update = true
	upd.StoreDir = storeDir
	upd.stats = true
	upd.removePaths = []string{"/db/rec[3]"}
	var updOut, updErr bytes.Buffer
	if err := run(upd, []string{doc2}, &updOut, &updErr); err != nil {
		t.Fatal(err)
	}
	// The fresh build did not record traces (-reuse-index off), so the
	// first update recompares in full — and persists traces of its own.
	if !strings.Contains(updErr.String(), "traces=none") {
		t.Fatalf("first update stats = %q, want traces=none", updErr.String())
	}

	var refOut, refErr bytes.Buffer
	if err := run(base, []string{doc1Trimmed, doc2}, &refOut, &refErr); err != nil {
		t.Fatal(err)
	}
	if updOut.String() != refOut.String() {
		t.Fatalf("-update output diverges from from-scratch run\n got: %s\nwant: %s", updOut.String(), refOut.String())
	}

	// Chained removal-only update against the merged snapshot. This is
	// a separate run() invocation, so the traces the first update
	// persisted come back from disk — the restart-replay path.
	upd2 := base
	upd2.update = true
	upd2.StoreDir = storeDir
	upd2.stats = true
	upd2.removePaths = []string{"0:/db/rec[2]"} // Gamma Delta, source-qualified
	var upd2Out, upd2Err bytes.Buffer
	if err := run(upd2, nil, &upd2Out, &upd2Err); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(upd2Out.String(), "dupcluster") {
		t.Fatalf("removal-only update produced no cluster output: %s", upd2Out.String())
	}
	if !strings.Contains(upd2Err.String(), "traces=disk") {
		t.Fatalf("second update stats = %q, want traces=disk", upd2Err.String())
	}

	// Bad removals fail with actionable errors.
	bad := base
	bad.update = true
	bad.StoreDir = storeDir
	bad.removePaths = []string{"/db/rec[99]"}
	if err := run(bad, nil, &out, &out); err == nil || !strings.Contains(err.Error(), "no live candidate") {
		t.Fatalf("unknown -remove path: %v", err)
	}
	bad.removePaths = []string{"/db/rec[1]"} // exists in sources 0 and 1
	if err := run(bad, nil, &out, &out); err == nil || !strings.Contains(err.Error(), "ambiguous") ||
		!strings.Contains(err.Error(), "N:/db/rec[1]") {
		t.Fatalf("ambiguous -remove path: %v", err)
	}
	// A file name is not a source qualifier: the error names the index
	// form instead of claiming the path is unknown.
	bad.removePaths = []string{"d1.xml:/db/rec[1]"}
	if err := run(bad, nil, &out, &out); err == nil || !strings.Contains(err.Error(), "not a source index") ||
		!strings.Contains(err.Error(), "N:/db/rec[1]") {
		t.Fatalf("file-qualified -remove path: %v", err)
	}
}

// TestRunFilterValuesManifest drives a snapshot directory whose
// manifest carries the Step 4 bound list earlier version-4 writers
// persisted (testdata/v4-filter-values/index, written by `dogmatix
// -filter -store disk -reuse-index` over the corpus beside it): the
// list is skipped and the directory warm-starts and -updates like any
// other. Its trace segment is a retired frame kind, so the first warm
// start recompares and rewrites it, and replay resumes from there.
func TestRunFilterValuesManifest(t *testing.T) {
	fixture := filepath.Join("testdata", "v4-filter-values")
	corpus := filepath.Join(fixture, "corpus.xml")
	copyIndex := func() string {
		t.Helper()
		dir := t.TempDir()
		entries, err := os.ReadDir(filepath.Join(fixture, "index"))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(fixture, "index", e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}

	// The fixture carries the list: one float64 per object, which
	// re-stamping the manifest drops.
	stamped := copyIndex()
	manifest := filepath.Join(stamped, odcodec.ManifestFile)
	legacy, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := od.OpenDiskStore(stamped)
	if err != nil {
		t.Fatalf("manifest with a filter-value list rejected: %v", err)
	}
	fp, n := ds.Fingerprint(), ds.Size()
	ds.Close()
	if err := odcodec.UpdateMeta(stamped, fp); err != nil {
		t.Fatal(err)
	}
	if now, err := os.ReadFile(manifest); err != nil || len(legacy)-len(now) != 8*n {
		t.Fatalf("fixture manifest is %d bytes, %d after re-stamping; want a %d-value list (err %v)", len(legacy), len(now), n, err)
	}

	base := options{
		Options: cliopt.Options{
			MapFile: filepath.Join(fixture, "map.txt"), TypeName: "REC", Heuristic: "rd:1",
			TTuple: 0.30, TCand: 0.55, UseFilter: true,
		},
		format: "xml",
	}
	var ref bytes.Buffer
	if err := run(base, []string{corpus}, &ref, io.Discard); err != nil {
		t.Fatal(err)
	}

	warm := base
	warm.Store, warm.StoreDir, warm.ReuseIndex, warm.stats = cliopt.StoreDisk, copyIndex(), true, true
	for n, wants := range [][]string{
		{"warm-start=true", "traces=none"},
		{"warm-start=true", "compared=0", "traces=disk"},
	} {
		var warmOut, warmErr bytes.Buffer
		if err := run(warm, []string{corpus}, &warmOut, &warmErr); err != nil {
			t.Fatal(err)
		}
		for _, want := range wants {
			if !strings.Contains(warmErr.String(), want) {
				t.Errorf("-reuse-index run %d stats = %q, want %s", n+1, warmErr.String(), want)
			}
		}
		if warmOut.String() != ref.String() {
			t.Errorf("warm start %d diverges from a fresh run\n got: %s\nwant: %s", n+1, warmOut.String(), ref.String())
		}
	}

	dir := t.TempDir()
	doc2 := filepath.Join(dir, "d2.xml")
	trimmed := filepath.Join(dir, "trimmed.xml")
	if err := os.WriteFile(doc2, []byte(`<db>
  <rec><name>Eta Theta</name><city>Bremen</city></rec>
  <rec><name>Iota Kappa</name><city>Essen</city></rec>
</db>`), 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(corpus)
	if err != nil {
		t.Fatal(err)
	}
	last := "  <rec><name>Eta Theta</name><city>Bremen</city></rec>\n"
	if !bytes.Contains(raw, []byte(last)) {
		t.Fatal("fixture corpus lost its last record")
	}
	if err := os.WriteFile(trimmed, bytes.Replace(raw, []byte(last), nil, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	upd := base
	upd.update, upd.StoreDir, upd.stats = true, warm.StoreDir, true
	upd.removePaths = []string{"/db/rec[6]"}
	var updOut, updErr bytes.Buffer
	if err := run(upd, []string{doc2}, &updOut, &updErr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(updErr.String(), "traces=disk") {
		t.Errorf("-update stats = %q, want traces=disk", updErr.String())
	}
	var refUpd bytes.Buffer
	if err := run(base, []string{trimmed, doc2}, &refUpd, io.Discard); err != nil {
		t.Fatal(err)
	}
	if updOut.String() != refUpd.String() {
		t.Errorf("-update diverges from a fresh run over the edited corpus\n got: %s\nwant: %s", updOut.String(), refUpd.String())
	}
}

// TestRunUpdateJSONCandidateCount pins the live-candidate count in JSON
// output: an update result's Candidates slice spans removed IDs, but
// the rendered count must match a from-scratch run over the edited
// corpus.
func TestRunUpdateJSONCandidateCount(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "map.txt")
	storeDir := filepath.Join(dir, "store")
	if err := os.WriteFile(mapPath, []byte("REC /db/rec\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	docPath := filepath.Join(dir, "d.xml")
	if err := os.WriteFile(docPath, []byte(`<db>
  <rec><name>Alpha Beta</name><id>7</id></rec>
  <rec><name>Alpha Beta</name><id>7</id></rec>
  <rec><name>Stale</name><id>9</id></rec>
</db>`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := options{
		Options: cliopt.Options{
			MapFile: mapPath, TypeName: "REC", Heuristic: "rd:1", TTuple: 0.30, TCand: 0.55,
			Store: cliopt.StoreDisk, StoreDir: storeDir,
		},
		format: "json",
	}
	var out bytes.Buffer
	if err := run(base, []string{docPath}, &out, &out); err != nil {
		t.Fatal(err)
	}
	upd := base
	upd.Store, upd.StoreDir = "", storeDir
	upd.update = true
	upd.removePaths = []string{"/db/rec[3]"}
	var updOut, updErr bytes.Buffer
	if err := run(upd, nil, &updOut, &updErr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(updOut.String(), `"candidates": 2`) {
		t.Fatalf("update JSON should report 2 live candidates:\n%s", updOut.String())
	}
}

// TestRunDistStore drives the CLI end to end on the distributed
// backend: a loopback federation at 1 and 3 partitions must emit
// byte-identical dupcluster XML to the MemStore run on the same
// corpus.
func TestRunDistStore(t *testing.T) {
	dir := t.TempDir()
	docPath := filepath.Join(dir, "db.xml")
	mapPath := filepath.Join(dir, "map.txt")
	const doc = `<db>
  <rec><name>Alpha Beta</name><id>7</id></rec>
  <rec><name>Alpha Beta</name><id>7</id></rec>
  <rec><name>Gamma Delta</name><id>3</id></rec>
  <rec><name>Gamma Delta</name><id>3</id></rec>
  <rec><name>Unique One</name><id>9</id></rec>
</db>`
	if err := os.WriteFile(docPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mapPath, []byte("REC /db/rec\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := options{
		Options: cliopt.Options{MapFile: mapPath, TypeName: "REC", Heuristic: "rd:1", TTuple: 0.30, TCand: 0.55},
		format:  "xml", stats: true,
	}

	var memOut, memErr bytes.Buffer
	if err := run(base, []string{docPath}, &memOut, &memErr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(memOut.String(), "dupcluster") {
		t.Fatalf("no cluster output: %s", memOut.String())
	}
	for _, parts := range []int{1, 3} {
		opts := base
		opts.Store = cliopt.StoreDist
		opts.Partitions = parts
		var out, errOut bytes.Buffer
		if err := run(opts, []string{docPath}, &out, &errOut); err != nil {
			t.Fatalf("partitions=%d: %v", parts, err)
		}
		if out.String() != memOut.String() {
			t.Fatalf("partitions=%d output diverges from MemStore\n got: %s\nwant: %s", parts, out.String(), memOut.String())
		}
		// -stats surfaces the routing counters and one wire-counter line
		// per loopback member.
		if !strings.Contains(errOut.String(), "dist routing: fanouts=") {
			t.Fatalf("partitions=%d stats missing routing counters: %s", parts, errOut.String())
		}
		if n := strings.Count(errOut.String(), "dist wire: member="); n != parts {
			t.Fatalf("partitions=%d stats printed %d wire-counter lines: %s", parts, n, errOut.String())
		}
	}
}
