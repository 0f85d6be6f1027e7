package evalmetrics

import (
	"math"
	"testing"
)

func TestPairCanonical(t *testing.T) {
	if NewPair(3, 1) != (Pair{1, 3}) {
		t.Error("pair not canonicalized")
	}
	s := PairSet{}
	s.Add(5, 2)
	if !s.Has(2, 5) || !s.Has(5, 2) {
		t.Error("unordered membership broken")
	}
	if len(s) != 1 {
		t.Errorf("len = %d", len(s))
	}
}

func TestPairsPR(t *testing.T) {
	gold := NewPairSet([2]int32{0, 1}, [2]int32{2, 3}, [2]int32{4, 5})
	detected := NewPairSet([2]int32{0, 1}, [2]int32{2, 3}, [2]int32{6, 7})
	pr := PairsPR(detected, gold)
	if math.Abs(pr.Recall-2.0/3) > 1e-12 {
		t.Errorf("recall = %v", pr.Recall)
	}
	if math.Abs(pr.Precision-2.0/3) > 1e-12 {
		t.Errorf("precision = %v", pr.Precision)
	}
	if pr.TruePos != 2 || pr.FalsePos != 1 || pr.FalseNeg != 1 {
		t.Errorf("counts = %+v", pr)
	}
	if f1 := pr.F1(); math.Abs(f1-2.0/3) > 1e-12 {
		t.Errorf("f1 = %v", f1)
	}
}

func TestPairsPREdgeCases(t *testing.T) {
	empty := PairSet{}
	some := NewPairSet([2]int32{0, 1})
	pr := PairsPR(empty, empty)
	if pr.Recall != 1 || pr.Precision != 1 {
		t.Errorf("empty/empty = %+v", pr)
	}
	pr = PairsPR(empty, some)
	if pr.Recall != 0 || pr.Precision != 1 {
		t.Errorf("empty detected = %+v", pr)
	}
	pr = PairsPR(some, empty)
	if pr.Recall != 1 || pr.Precision != 0 {
		t.Errorf("empty gold = %+v", pr)
	}
	if pr.F1() != 0 {
		t.Errorf("f1 with zero precision = %v", pr.F1())
	}
}

func TestFilterPR(t *testing.T) {
	// 10 objects; 0-3 have duplicates, 4-9 do not.
	hasDup := func(id int32) bool { return id < 4 }
	// filter pruned 4,5,6 (correct) and 0 (wrong)
	pr := FilterPR([]int32{4, 5, 6, 0}, hasDup, 10)
	if math.Abs(pr.Recall-3.0/6) > 1e-12 {
		t.Errorf("recall = %v, want 0.5", pr.Recall)
	}
	if math.Abs(pr.Precision-3.0/4) > 1e-12 {
		t.Errorf("precision = %v, want 0.75", pr.Precision)
	}
}

func TestFilterPREdgeCases(t *testing.T) {
	allDup := func(int32) bool { return true }
	pr := FilterPR(nil, allDup, 4)
	if pr.Recall != 1 || pr.Precision != 1 {
		t.Errorf("no prunes, no non-dups = %+v", pr)
	}
	noDup := func(int32) bool { return false }
	pr = FilterPR(nil, noDup, 4)
	if pr.Recall != 0 || pr.Precision != 1 {
		t.Errorf("no prunes, all non-dup = %+v", pr)
	}
}
