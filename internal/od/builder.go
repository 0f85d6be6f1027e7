package od

import "repro/internal/strdist"

// This file is the index builder every Store backend shares: the logic
// that turns a sealed OD set into occurrence postings and per-type
// distinct-value tables is identical across MemStore (build and keep)
// and DiskStore (build once, then stream the tables to segment files).
// Only the storage around these functions differs, which is what keeps
// the backends bit-identical by construction.

// scanODTuples calls emit(key) once per distinct non-empty occurrence
// key of the OD, in tuple order — an object counts once per tuple key
// no matter how often the tuple repeats (Definition 8 counts objects,
// not occurrences). seen is the caller's scratch map, cleared here so
// tight loops can reuse one allocation.
func scanODTuples(o *OD, seen map[string]bool, emit func(key string)) {
	clear(seen)
	for _, t := range o.Tuples {
		if t.Value == "" {
			continue
		}
		k := t.occKey()
		if seen[k] {
			continue
		}
		seen[k] = true
		emit(k)
	}
}

// buildOccurrence builds the occurrence index over all ODs serially:
// occKey -> object ids in ascending order (Add assigns ids in insertion
// order, so appending while scanning in id order yields sorted lists).
func buildOccurrence(ods []*OD) map[string][]int32 {
	occ := make(map[string][]int32)
	seen := map[string]bool{}
	for _, o := range ods {
		id := o.ID
		scanODTuples(o, seen, func(key string) {
			occ[key] = append(occ[key], id)
		})
	}
	return occ
}

// groupValuesByType regroups an occurrence index into per-type value
// tables: type -> value -> sorted object ids. The id slices are shared
// with the occurrence index, not copied.
func groupValuesByType(occ map[string][]int32) map[string]map[string][]int32 {
	valueObjs := map[string]map[string][]int32{}
	for key, ids := range occ {
		typ, val := splitOccKey(key)
		m, ok := valueObjs[typ]
		if !ok {
			m = map[string][]int32{}
			valueObjs[typ] = m
		}
		m[val] = ids
	}
	return valueObjs
}

// maxValueLens returns the per-type maximum value rune length, which
// the edit budget of a type's similarity index derives from. DiskStore
// persists both per type; buildTypeIndex measures the same maximum
// while it decodes the values.
func maxValueLens(valueObjs map[string]map[string][]int32) map[string]int {
	out := make(map[string]int, len(valueObjs))
	for typ, m := range valueObjs {
		maxLen := 0
		for v := range m {
			if l := len([]rune(v)); l > maxLen {
				maxLen = l
			}
		}
		out[typ] = maxLen
	}
	return out
}

// buildTypeIndexes builds the similarity index of every type from its
// value table.
func buildTypeIndexes(valueObjs map[string]map[string][]int32, theta float64) map[string]*typeIndex {
	types := make(map[string]*typeIndex, len(valueObjs))
	for typ, m := range valueObjs {
		types[typ] = buildTypeIndex(m, theta)
	}
	return types
}

// editBudget is the strict edit budget backing a type's θtuple scans,
// derived from the longest value of the type across the whole store.
// Exposed here so DiskStore segments persist the same budget the
// in-memory indexes compute.
func editBudget(theta float64, maxLen int) int {
	return strdist.MaxEditsBelow(theta, maxLen)
}
