package core

// RefilteredSlots lists the live slots of res whose Step 4 bound trace
// was computed rather than replayed from prev's: a replayed bound keeps
// prev's trace slice, so slice identity tells the two apart. Slots
// without steps (no non-empty tuple) cannot be told apart and are
// skipped. Both results must carry replay traces (Config.Incremental).
func RefilteredSlots(prev, res *Result) []int32 {
	var out []int32
	for i, steps := range res.inc.filter {
		if len(steps) == 0 {
			continue
		}
		if i >= len(prev.inc.filter) || len(prev.inc.filter[i]) == 0 || &prev.inc.filter[i][0] != &steps[0] {
			out = append(out, int32(i))
		}
	}
	return out
}
