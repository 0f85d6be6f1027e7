package core_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/od"
)

// TestResolveRemovals pins the removal syntax the CLI's -remove and the
// daemon's POST /v1/updates share: a bare path, or N:PATH with N the
// 0-based source index.
func TestResolveRemovals(t *testing.T) {
	cands := []core.Candidate{
		{Source: 0, Path: "/db/rec[1]"},
		{Source: 1, Path: "/db/rec[1]"},
		{Source: 0, Path: "/db/rec[2]"},
		{Source: 0, Path: "/db/rec[@k='a:b']"},
		{Source: 1, Path: "/db/rec[3]"}, // removed below
	}
	store := od.NewMemStore()
	for _, c := range cands {
		store.Add(&od.OD{Object: c.Path, Source: c.Source})
	}
	store.Finalize(0.15)
	if err := store.Remove([]int32{4}); err != nil {
		t.Fatal(err)
	}
	res := &core.Result{Candidates: cands, Store: store}

	cases := []struct {
		name  string
		specs []string
		want  []int32
		err   []string // substrings of the error; nil = resolves
	}{
		{name: "none"},
		{name: "unique-bare-path", specs: []string{"/db/rec[2]"}, want: []int32{2}},
		{name: "ambiguous-bare-path", specs: []string{"/db/rec[1]"},
			err: []string{"remove /db/rec[1]: ambiguous", "sources 0, 1", "N:/db/rec[1]"}},
		{name: "source-qualified", specs: []string{"1:/db/rec[1]"}, want: []int32{1}},
		{name: "in-spec-order", specs: []string{"/db/rec[2]", "0:/db/rec[1]"}, want: []int32{2, 0}},
		{name: "file-name-qualifier", specs: []string{"d1.xml:/db/rec[1]"},
			err: []string{`"d1.xml" is not a source index`, "N:/db/rec[1]"}},
		{name: "negative-qualifier", specs: []string{"-1:/db/rec[1]"},
			err: []string{`"-1" is not a source index`}},
		{name: "removed-candidate", specs: []string{"/db/rec[3]"}, err: []string{"no live candidate"}},
		{name: "removed-candidate-qualified", specs: []string{"1:/db/rec[3]"}, err: []string{"no live candidate"}},
		{name: "wrong-source", specs: []string{"1:/db/rec[2]"}, err: []string{"no live candidate"}},
		{name: "colon-in-predicate", specs: []string{"/db/rec[@k='a:b']"}, want: []int32{3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := res.ResolveRemovals(tc.specs)
			if tc.err != nil {
				if err == nil {
					t.Fatalf("ResolveRemovals(%q) = %v, want an error", tc.specs, got)
				}
				for _, sub := range tc.err {
					if !strings.Contains(err.Error(), sub) {
						t.Errorf("ResolveRemovals(%q) err = %q, want it to contain %q", tc.specs, err, sub)
					}
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ResolveRemovals(%q) = %v, %v; want %v", tc.specs, got, err, tc.want)
			}
		})
	}
}
