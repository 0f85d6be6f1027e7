package api

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/od"
)

// FederationDir persists a served federation across updates. A
// federation cannot re-save into the directory its DiskStore members
// already live in (the in-place merge would misalign the compacted
// IDs — od.SavePartitioned rejects it), so the daemon writes each
// persist into a fresh generation directory under one root and commits
// it by atomically rewriting a CURRENT pointer file:
//
//	root/
//	  CURRENT        -> "gen-000003"
//	  gen-000003/    federation snapshot + trace segment
//
// A crash mid-save leaves a partial gen directory that CURRENT never
// pointed at; the next Open serves the last committed generation and
// removes everything else. Generations older than CURRENT are removed
// at Open time only — the serving process still reads its member
// segments from the generation it opened.
type FederationDir struct {
	root string
	gen  int
}

const currentFile = "CURRENT"

func genName(gen int) string { return fmt.Sprintf("gen-%06d", gen) }

// CreateFederationDir prepares an empty root for a freshly built
// federation; the first Persist commits generation 1.
func CreateFederationDir(root string) (*FederationDir, error) {
	if err := os.MkdirAll(root, 0o777); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, currentFile)); err == nil {
		return nil, fmt.Errorf("federation root %s already holds a committed snapshot; open it instead", root)
	}
	return &FederationDir{root: root}, nil
}

// OpenFederationDir reopens the last committed generation as a serving
// federation and sweeps every uncommitted or superseded generation.
func OpenFederationDir(root string) (*FederationDir, *od.PartitionedStore, error) {
	b, err := os.ReadFile(filepath.Join(root, currentFile))
	if err != nil {
		return nil, nil, fmt.Errorf("open federation root %s: %w", root, err)
	}
	name := strings.TrimSpace(string(b))
	gen, err := strconv.Atoi(strings.TrimPrefix(name, "gen-"))
	if err != nil || !strings.HasPrefix(name, "gen-") || gen < 1 {
		return nil, nil, fmt.Errorf("federation root %s: corrupt CURRENT pointer %q", root, name)
	}
	fed, err := od.OpenPartitioned(filepath.Join(root, name))
	if err != nil {
		return nil, nil, err
	}
	entries, _ := os.ReadDir(root)
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "gen-") && e.Name() != name {
			os.RemoveAll(filepath.Join(root, e.Name()))
		}
	}
	return &FederationDir{root: root, gen: gen}, fed, nil
}

// Dir returns the committed generation's directory, or "" before the
// first Persist.
func (f *FederationDir) Dir() string {
	if f.gen == 0 {
		return ""
	}
	return filepath.Join(f.root, genName(f.gen))
}

// Persist writes res's federation and replay traces into the next
// generation and commits it. It is the Config.Persist callback of a
// distributed daemon: only after the CURRENT rename lands is the
// update batch acknowledged.
func (f *FederationDir) Persist(res *core.Result) error {
	fed, ok := res.Store.(*od.PartitionedStore)
	if !ok {
		return fmt.Errorf("federation persist: result serves a %T, not a federation", res.Store)
	}
	next := f.gen + 1
	dir := filepath.Join(f.root, genName(next))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := od.SavePartitioned(dir, fed, od.SnapshotMeta{}); err != nil {
		return err
	}
	if err := res.SaveTraces(dir); err != nil {
		return err
	}
	if err := f.commit(next); err != nil {
		return err
	}
	f.gen = next
	return nil
}

// CommitFederation persists a federation that exists outside any
// FederationDir — the output of `dogmatix rebalance` — into a fresh
// root as its first committed generation. The root must not already
// hold a committed snapshot.
func CommitFederation(root string, fed *od.PartitionedStore, meta od.SnapshotMeta) (*FederationDir, error) {
	f, err := CreateFederationDir(root)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, genName(1))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := od.SavePartitioned(dir, fed, meta); err != nil {
		return nil, err
	}
	if err := f.commit(1); err != nil {
		return nil, err
	}
	f.gen = 1
	return f, nil
}

// commit atomically repoints CURRENT at gen.
func (f *FederationDir) commit(gen int) error {
	tmp := filepath.Join(f.root, currentFile+".tmp")
	tf, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, werr := tf.WriteString(genName(gen) + "\n")
	if werr == nil {
		werr = tf.Sync()
	}
	if cerr := tf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, filepath.Join(f.root, currentFile)); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(f.root); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
