package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/od"
	"repro/internal/xmltree"
)

// TestResultRetainsNoDocument pins that a Result — and every store
// behind one — holds no pointer into a parsed source document, so a
// Result kept across Update calls (as dogmatixd keeps its published
// view) never keeps the trees of the documents it ingested alive. It
// walks the static type graph from the roots: struct fields, exported
// or not, pointers, slices, arrays and maps. Interfaces are not
// followed; the stores behind Result.Store are roots of their own.
func TestResultRetainsNoDocument(t *testing.T) {
	banned := reflect.TypeOf(xmltree.Node{})
	for _, root := range []any{core.Result{}, od.OD{}, (*od.MemStore)(nil), (*od.DiskStore)(nil), (*od.PartitionedStore)(nil)} {
		rt := reflect.TypeOf(root)
		if path, ok := reachPath(rt, banned, map[reflect.Type]bool{}); ok {
			t.Errorf("%v reaches %v through %v%s", rt, banned, rt, path)
		}
	}
}

// reachPath reports whether target is reachable from t and, if so, the
// selector path that reaches it. Types already visited are skipped.
func reachPath(t, target reflect.Type, seen map[reflect.Type]bool) (string, bool) {
	if t == target {
		return "", true
	}
	if seen[t] {
		return "", false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer:
		return reachPath(t.Elem(), target, seen)
	case reflect.Slice, reflect.Array:
		if p, ok := reachPath(t.Elem(), target, seen); ok {
			return "[i]" + p, true
		}
	case reflect.Map:
		if p, ok := reachPath(t.Key(), target, seen); ok {
			return "[key]" + p, true
		}
		if p, ok := reachPath(t.Elem(), target, seen); ok {
			return "[k]" + p, true
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p, ok := reachPath(f.Type, target, seen); ok {
				return "." + f.Name + p, true
			}
		}
	}
	return "", false
}
