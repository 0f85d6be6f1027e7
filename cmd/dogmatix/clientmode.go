package main

// Client modes against a running dogmatixd daemon:
//
//	dogmatix query  -daemon http://HOST:PORT [-id N | -similar -type T -value V | -metrics | -health]
//	dogmatix submit -daemon http://HOST:PORT [-name NAME] [-remove [N:]OBJECT-PATH]... [doc.xml ...]
//
// query without a selector fetches the full clustering (/v1/clusters).
// submit reads each document file, posts everything as one update
// batch and prints the daemon's ack; the 200 means the batch was
// applied — and, on a persisting daemon, durable — before the reply.
// When the ack reports durable=false (a -store mem daemon applied the
// batch in memory only), submit warns on stderr: a daemon restart
// loses that batch. Both modes print the endpoint's JSON response
// verbatim on stdout.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/api"
	"repro/internal/api/client"
)

// runQuery implements `dogmatix query`.
func runQuery(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dogmatix query", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		daemon  = fs.String("daemon", "", "daemon base URL (required), e.g. http://127.0.0.1:7497")
		id      = fs.Int("id", -1, "fetch one candidate's duplicates instead of the full clustering")
		similar = fs.Bool("similar", false, "query the value index (-type and -value required)")
		typ     = fs.String("type", "", "with -similar: real-world type of the queried value")
		value   = fs.String("value", "", "with -similar: value to find similar indexed values for")
		metrics = fs.Bool("metrics", false, "fetch the daemon's metrics snapshot")
		health  = fs.Bool("health", false, "fetch the daemon's health state")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *daemon == "" {
		return fmt.Errorf("query: -daemon is required")
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("query: unexpected arguments %v", fs.Args())
	}
	selectors := 0
	for _, on := range []bool{*id >= 0, *similar, *metrics, *health} {
		if on {
			selectors++
		}
	}
	if selectors > 1 {
		return fmt.Errorf("query: -id, -similar, -metrics and -health are exclusive")
	}
	if !*similar && (*typ != "" || *value != "") {
		return fmt.Errorf("query: -type/-value only apply to -similar")
	}

	c := client.New(*daemon)
	ctx := context.Background()
	var out any
	var err error
	switch {
	case *id >= 0:
		out, err = c.Duplicates(ctx, int32(*id))
	case *similar:
		if *typ == "" || *value == "" {
			return fmt.Errorf("query: -similar needs both -type and -value")
		}
		out, err = c.Similar(ctx, *typ, *value)
	case *metrics:
		out, err = c.Metrics(ctx)
	case *health:
		out, err = c.Health(ctx)
	default:
		out, err = c.Clusters(ctx)
	}
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	return printJSON(stdout, out)
}

// runSubmit implements `dogmatix submit`.
func runSubmit(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dogmatix submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	daemon := fs.String("daemon", "", "daemon base URL (required), e.g. http://127.0.0.1:7497")
	var names stringList
	fs.Var(&names, "name", "source name for the Nth document (repeatable; default: the file path)")
	var removes stringList
	fs.Var(&removes, "remove", "`[N:]PATH` of a candidate to remove, N the 0-based source index where PATH recurs across sources (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *daemon == "" {
		return fmt.Errorf("submit: -daemon is required")
	}
	docs := fs.Args()
	if len(docs) == 0 && len(removes) == 0 {
		return fmt.Errorf("submit: nothing to do — pass documents and/or -remove paths")
	}
	if len(names) > len(docs) {
		return fmt.Errorf("submit: %d -name flags for %d documents", len(names), len(docs))
	}

	req := &api.UpdateRequest{Remove: removes}
	for i, path := range docs {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		name := path
		if i < len(names) {
			name = names[i]
		}
		req.Add = append(req.Add, api.UpdateDoc{Name: name, XML: string(raw)})
	}
	resp, err := client.New(*daemon).Submit(context.Background(), req)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if !resp.Durable {
		fmt.Fprintln(stderr, "dogmatix: warning: the daemon applied this batch in memory only — the ack is volatile and a daemon restart loses it (serve a persisting backend: -store disk -store-dir)")
	}
	return printJSON(stdout, resp)
}

func printJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}
