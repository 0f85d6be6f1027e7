package core

import "repro/internal/od"

// RefilteredSlots lists the live slots of res whose Step 4 bound trace
// was computed rather than replayed from prev's: a replayed bound keeps
// prev's trace slice, so slice identity tells the two apart. Slots
// without steps (no non-empty tuple) cannot be told apart and are
// skipped. Both results must carry replay traces (Config.Incremental).
func RefilteredSlots(prev, res *Result) []int32 {
	var out []int32
	for i, steps := range res.inc.Filter {
		if len(steps) == 0 {
			continue
		}
		if i >= len(prev.inc.Filter) || len(prev.inc.Filter[i]) == 0 || &prev.inc.Filter[i][0] != &steps[0] {
			out = append(out, int32(i))
		}
	}
	return out
}

// TraceUpdateOf recovers what res's run changed in prev's replay state
// — the od.TraceUpdate its traces stage appended — by the same slice
// identity: a patched pair keeps prev's union slices, a recompared one
// has fresh ones.
func TraceUpdateOf(prev, res *Result) *od.TraceUpdate {
	up := &od.TraceUpdate{Prev: prev.inc.TraceSet, Cur: res.inc.TraceSet, Refiltered: RefilteredSlots(prev, res)}
	for key := range prev.inc.Pairs {
		if _, ok := res.inc.Pairs[key]; !ok {
			up.Dropped = append(up.Dropped, key)
		}
	}
	for key, tr := range res.inc.Pairs {
		if was, ok := prev.inc.Pairs[key]; !ok || len(tr.SimU) == 0 || len(was.SimU) == 0 || &was.SimU[0] != &tr.SimU[0] {
			up.Rescored = append(up.Rescored, key)
		}
	}
	return up
}
