// Command dogmatix runs XML duplicate detection on one or more XML
// documents, following the DogmatiX pipeline of the paper.
//
// Usage:
//
//	dogmatix -map mapping.txt -type MOVIE [-schema doc.xsd] \
//	         [-heuristic kd:6] [-ttuple 0.15] [-tcand 0.55] \
//	         [-filter] [-pairs] [-stages] [-workers 4] \
//	         [-store mem|disk|dist] [-partitions 3] \
//	         [-store-dir DIR] [-reuse-index] \
//	         [-update] [-remove [N:]OBJECT-PATH]... \
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
// federates the indexes across -partitions in-process members (2 by
// default), each behind an odrpc loopback transport (full wire codec,
// no sockets). All three backends produce identical output. The
// default resolves to dist when -partitions is set, and mem otherwise.
// A federation member failing or hanging mid-run fails the run with a
// typed partition error — never a silently incomplete result.
// -reuse-index and -update serve from single-directory disk snapshots
// and do not combine with -store dist.
//
// -reuse-index enables index persistence across runs: the fresh run
// saves the finalized indexes (stamped with a corpus fingerprint) and
// its replay traces into -store-dir, and any later run whose inputs,
// mapping, heuristic and θtuple match warm-starts from them — skipping
// schema inference, ingestion and index construction, and continuing
// the snapshot the way -update does, as an update that adds nothing:
// the filter bounds and pair scores replay from the traces instead of
// being computed. -stages shows the warmstart, adopt and update stages
// when it hits; -stats shows patched=… traces=disk.
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
// [N:]OBJECT-PATH deletes an existing candidate (N, the 0-based index
// of its source, tells apart a path that recurs across sources), and
// only the affected
// portion of the pipeline re-runs (delta index maintenance, scoped
// filter-bound recomputation, recomparison of affected pairs). The
// batch is persisted to -store-dir as a delta segment plus one trace
// frame carrying the chained fingerprint (the deltas merge once per
// trace chain), ready for the next -update run:
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
//	dogmatix submit -daemon http://HOST:PORT [-remove [N:]OBJECT-PATH]... [doc.xml ...]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/cliopt"
	"repro/internal/core"
	"repro/internal/od"
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
		}
	}
	var opts options
	opts.register(flag.CommandLine)
	flag.Parse()
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

// options are the shared flags plus the CLI's own.
type options struct {
	cliopt.Options
	showPairs, stats, showStages bool
	stream, update               bool
	format                       string
	removePaths                  []string
}

// register defines the shared flags and the CLI's own on fs.
func (o *options) register(fs *flag.FlagSet) {
	o.Register(fs)
	fs.BoolVar(&o.showPairs, "pairs", false, "list detected pairs with scores on stderr")
	fs.BoolVar(&o.stats, "stats", false, "print run statistics on stderr")
	fs.BoolVar(&o.showStages, "stages", false, "print per-stage timings on stderr")
	fs.StringVar(&o.format, "format", "xml", "output format: xml (Fig. 3) | json | csv")
	fs.BoolVar(&o.stream, "stream", false, "ingest documents through the pull parser (bounded memory) instead of materializing them")
	fs.BoolVar(&o.update, "update", false, "incremental run: append the documents to (and apply -remove against) the persisted indexes in -store-dir")
	fs.Var((*stringList)(&o.removePaths), "remove", "with -update: `[N:]PATH` of a candidate to remove, N the 0-based source index where PATH recurs across sources (repeatable)")
}

// validate checks every flag combination up front — before any file is
// opened or any pipeline stage runs — so misconfigurations surface as
// one-line errors instead of failures deep inside the run: the CLI's
// own rules here, the shared ones and their defaults in
// cliopt.Options.Validate. -update resolves an empty -store to disk.
// Flag parsing stops at the first non-flag argument, so flags after it
// arrive as documents: then that argument is named as an unknown
// subcommand instead of failing on the flags it swallowed.
func (o *options) validate(docs []string) error {
	if len(docs) > 1 && !strings.HasPrefix(docs[0], "-") &&
		slices.ContainsFunc(docs[1:], func(d string) bool { return strings.HasPrefix(d, "-") }) {
		return fmt.Errorf("unknown subcommand %q (want query or submit; flags go before the documents)", docs[0])
	}
	if len(docs) == 0 && !(o.update && len(o.removePaths) > 0) {
		return fmt.Errorf("no input documents")
	}
	if len(o.removePaths) > 0 && !o.update {
		return fmt.Errorf("-remove only applies to -update runs")
	}
	if o.stream && specSelectsAncestors(o.Heuristic) {
		return fmt.Errorf(
			"-stream cannot evaluate the ancestor selections of heuristic %q: streaming ingestion holds only the candidate subtree, so ra:N descriptions need a materialized document — drop -stream, or use a descendant heuristic (kd:N, rd:N); see ROADMAP.md, streaming sources", o.Heuristic)
	}
	if o.update {
		if o.StoreDir == "" {
			return fmt.Errorf("-update needs -store-dir pointing at a persisted index snapshot")
		}
		if o.ReuseIndex {
			return fmt.Errorf("-update and -reuse-index are exclusive: an update run always starts from (and re-persists) the -store-dir snapshot")
		}
		switch o.Store {
		case "", cliopt.StoreDisk:
			o.Store = cliopt.StoreDisk
		default:
			return fmt.Errorf("-update serves from the persisted disk store; -store %q does not apply", o.Store)
		}
	}
	switch o.format {
	case "xml", "json", "csv":
	default:
		return fmt.Errorf("unknown -format %q (want xml, json, csv)", o.format)
	}
	return o.Options.Validate()
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

func run(opts options, docs []string, stdout, stderr io.Writer) error {
	if err := opts.validate(docs); err != nil {
		return err
	}

	mapping, cfg, schema, err := opts.Load()
	if err != nil {
		return err
	}
	var inputs []core.SourceInput
	if opts.stream {
		for _, path := range docs {
			inputs = append(inputs, core.FileSource(path, schema))
		}
	} else if inputs, err = cliopt.ParseDocs(docs, schema); err != nil {
		return err
	}

	var fed *od.PartitionedStore // set for -store dist; -stats reads its counters
	if opts.update {
		// Update runs serve from the persisted snapshot. The batch is
		// persisted as the delta segment the store fsyncs before it
		// applies, plus one frame appended to the trace chain; the
		// deltas merge in place once per chain. Incremental recording
		// keeps the replay traces, so the NEXT update — in this process
		// or after a restart — patches instead of recomparing.
		cfg.Snapshot = &core.SnapshotOptions{Dir: opts.StoreDir, Save: true}
		cfg.Incremental = true
	} else {
		cfg.NewStore, fed = opts.NewStore()
		if opts.ReuseIndex {
			cfg.Snapshot = &core.SnapshotOptions{Dir: opts.StoreDir, Reuse: true, Save: true}
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
		res, err = det.DetectInputs(opts.TypeName, inputs...)
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
	_, prev, err := opts.AdoptSnapshot()
	if err != nil {
		return nil, err
	}
	removeIDs, err := prev.ResolveRemovals(opts.removePaths)
	if err != nil {
		return nil, err
	}
	return det.Update(prev, core.UpdateBatch{Add: inputs, Remove: removeIDs})
}
