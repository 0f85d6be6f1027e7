// Package heuristics implements the description-selection heuristics of
// Section 4: r-distant ancestors (Heuristic 1), r-distant descendants
// (Heuristic 2) and k-closest descendants (Heuristic 3), the four schema
// conditions ccm / csdt / cme / cse (Conditions 1-4), and the combinators
// a -heuristic spec can name: OR of heuristics, AND of conditions and
// h[c] (Combinations 1-3).
//
// A heuristic maps a candidate schema element e0 to the set of schema
// elements whose instances form e0's description σ. Conditions refine a
// heuristic's selection, per Combination 3: σ' = {e ∈ σ | e satisfies c}.
package heuristics

import (
	"fmt"
	"strings"

	"repro/internal/xsd"
)

// Heuristic selects description elements for an anchor element.
type Heuristic interface {
	// Select returns schema elements in deterministic order.
	Select(anchor *xsd.Element) []*xsd.Element
	String() string
}

// Condition is a predicate on a selected element, evaluated relative to
// the anchor (Conditions 3 and 4 are relations to e0, not absolute flags).
type Condition interface {
	Satisfied(e, anchor *xsd.Element) bool
	String() string
}

// ----- Heuristics -----

type rAncestors struct{ r int }

// RDistantAncestors implements Heuristic 1: the ancestors a1..ar of e0.
func RDistantAncestors(r int) Heuristic { return rAncestors{r} }

func (h rAncestors) Select(anchor *xsd.Element) []*xsd.Element {
	var out []*xsd.Element
	p := anchor.Parent
	for i := 0; i < h.r && p != nil; i++ {
		out = append(out, p)
		p = p.Parent
	}
	return out
}

func (h rAncestors) String() string { return fmt.Sprintf("h%da", h.r) }

type rDescendants struct{ r int }

// RDistantDescendants implements Heuristic 2: all descendants of e0 whose
// depth below e0 is at most r.
func RDistantDescendants(r int) Heuristic { return rDescendants{r} }

func (h rDescendants) Select(anchor *xsd.Element) []*xsd.Element {
	var out []*xsd.Element
	level := []*xsd.Element{anchor}
	for d := 0; d < h.r; d++ {
		var next []*xsd.Element
		for _, e := range level {
			next = append(next, e.Children...)
		}
		out = append(out, next...)
		level = next
		if len(level) == 0 {
			break
		}
	}
	return out
}

func (h rDescendants) String() string { return fmt.Sprintf("h%dd", h.r) }

type kClosest struct{ k int }

// KClosestDescendants implements Heuristic 3: the first k descendants of
// e0 in breadth-first order.
func KClosestDescendants(k int) Heuristic { return kClosest{k} }

func (h kClosest) Select(anchor *xsd.Element) []*xsd.Element {
	var out []*xsd.Element
	queue := append([]*xsd.Element(nil), anchor.Children...)
	for len(queue) > 0 && len(out) < h.k {
		e := queue[0]
		queue = queue[1:]
		out = append(out, e)
		queue = append(queue, e.Children...)
	}
	return out
}

func (h kClosest) String() string { return fmt.Sprintf("h%dk", h.k) }

// ----- Combinations of heuristics (Combination 1) -----

type orH struct{ a, b Heuristic }

// Or returns the OR combination of two heuristics: σ1 ∪ σ2.
func Or(a, b Heuristic) Heuristic { return orH{a, b} }

func (h orH) Select(anchor *xsd.Element) []*xsd.Element {
	seen := map[*xsd.Element]bool{}
	var out []*xsd.Element
	for _, e := range h.a.Select(anchor) {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	for _, e := range h.b.Select(anchor) {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

func (h orH) String() string { return fmt.Sprintf("(%s OR %s)", h.a, h.b) }

// ----- Conditions (Section 4.2) -----

type contentModel struct{}

// ContentModel returns ccm: only elements whose content model admits a
// non-empty text node (simple or mixed).
func ContentModel() Condition { return contentModel{} }

func (contentModel) Satisfied(e, _ *xsd.Element) bool { return e.HasText() }
func (contentModel) String() string                   { return "ccm" }

type stringDataType struct{}

// StringDataType returns csdt: only elements of string data type.
func StringDataType() Condition { return stringDataType{} }

func (stringDataType) Satisfied(e, _ *xsd.Element) bool { return e.Type == xsd.DTString }
func (stringDataType) String() string                   { return "csdt" }

type mandatory struct{}

// Mandatory returns cme: on the descendant axis, every step from e0 down
// to the element must be mandatory; on the ancestor axis, e0 must be
// mandatory to the ancestor (every step from the ancestor down to e0 is
// mandatory).
func Mandatory() Condition { return mandatory{} }

func (mandatory) Satisfied(e, anchor *xsd.Element) bool {
	if chain, ok := pathBetween(anchor, e); ok {
		for _, step := range chain {
			if !step.Mandatory() {
				return false
			}
		}
		return true
	}
	if chain, ok := pathBetween(e, anchor); ok { // e is an ancestor of e0
		for _, step := range chain {
			if !step.Mandatory() {
				return false
			}
		}
		return true
	}
	return e.Mandatory()
}

func (mandatory) String() string { return "cme" }

type singleton struct{}

// Singleton returns cse: only elements in a 1:1 relation with e0. On the
// descendant axis every step from e0 down must have maxOccurs = 1; an
// ancestor is always 1:1 with e0 (every element has exactly one parent).
func Singleton() Condition { return singleton{} }

func (singleton) Satisfied(e, anchor *xsd.Element) bool {
	if chain, ok := pathBetween(anchor, e); ok {
		for _, step := range chain {
			if !step.Singleton() {
				return false
			}
		}
		return true
	}
	if _, ok := pathBetween(e, anchor); ok {
		return true // ancestor axis: inherently 1:1
	}
	return e.Singleton()
}

func (singleton) String() string { return "cse" }

// pathBetween returns the chain of elements from (excluding) top down to
// (including) bottom, if top is a proper ancestor of bottom.
func pathBetween(top, bottom *xsd.Element) ([]*xsd.Element, bool) {
	if top == bottom {
		return nil, false
	}
	var chain []*xsd.Element
	for e := bottom; e != nil; e = e.Parent {
		if e == top {
			// reverse into top-down order
			for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
				chain[i], chain[j] = chain[j], chain[i]
			}
			return chain, true
		}
		chain = append(chain, e)
	}
	return nil, false
}

// ----- Combinations of conditions (Combination 2) -----

type condAnd struct{ a, b Condition }

// CondAnd returns c1 ∧c c2.
func CondAnd(a, b Condition) Condition { return condAnd{a, b} }

func (c condAnd) Satisfied(e, anchor *xsd.Element) bool {
	return c.a.Satisfied(e, anchor) && c.b.Satisfied(e, anchor)
}
func (c condAnd) String() string { return fmt.Sprintf("(%s AND %s)", c.a, c.b) }

// ----- Combination of heuristics with conditions (Combination 3) -----

type filtered struct {
	h Heuristic
	c Condition
}

// Filtered returns h[c]: the selection of h restricted to elements that
// satisfy c.
func Filtered(h Heuristic, c Condition) Heuristic { return filtered{h, c} }

func (f filtered) Select(anchor *xsd.Element) []*xsd.Element {
	var out []*xsd.Element
	for _, e := range f.h.Select(anchor) {
		if f.c.Satisfied(e, anchor) {
			out = append(out, e)
		}
	}
	return out
}

func (f filtered) String() string { return fmt.Sprintf("%s[%s]", f.h, f.c) }

// ----- Table 4: the experiment condition combinations -----

// ExperimentCount is the number of condition combinations in Table 4.
const ExperimentCount = 8

// Experiment wraps the base heuristic h with the conditions of experiment
// n (1-based), exactly as Table 4 lists them:
//
//	exp1 h            exp5 h[csdt ∧ cme]
//	exp2 h[csdt]      exp6 h[csdt ∧ cse]
//	exp3 h[cme]       exp7 h[cme ∧ cse]
//	exp4 h[cse]       exp8 h[csdt ∧ cse ∧ cme]
func Experiment(n int, h Heuristic) (Heuristic, error) {
	switch n {
	case 1:
		return h, nil
	case 2:
		return Filtered(h, StringDataType()), nil
	case 3:
		return Filtered(h, Mandatory()), nil
	case 4:
		return Filtered(h, Singleton()), nil
	case 5:
		return Filtered(h, CondAnd(StringDataType(), Mandatory())), nil
	case 6:
		return Filtered(h, CondAnd(StringDataType(), Singleton())), nil
	case 7:
		return Filtered(h, CondAnd(Mandatory(), Singleton())), nil
	case 8:
		return Filtered(h, CondAnd(StringDataType(), CondAnd(Singleton(), Mandatory()))), nil
	default:
		return nil, fmt.Errorf("heuristics: experiment %d out of range 1..%d", n, ExperimentCount)
	}
}

// ExperimentName returns the Table 4 label of experiment n, e.g.
// "h[csdt ∧ cme]".
func ExperimentName(n int) string {
	names := []string{"", "h", "h[csdt]", "h[cme]", "h[cse]",
		"h[csdt ∧ cme]", "h[csdt ∧ cse]", "h[cme ∧ cse]", "h[csdt ∧ cse ∧ cme]"}
	if n < 1 || n >= len(names) {
		return fmt.Sprintf("exp%d", n)
	}
	return names[n]
}

// ----- Relative paths -----

// RelPath renders the location of e relative to the anchor in the paper's
// σ notation: "./title" for descendants, "../.." style for ancestors, and
// the absolute path for unrelated elements.
func RelPath(anchor, e *xsd.Element) string {
	if e == anchor {
		return "."
	}
	if chain, ok := pathBetween(anchor, e); ok {
		parts := make([]string, len(chain))
		for i, step := range chain {
			parts[i] = step.Name
		}
		return "./" + strings.Join(parts, "/")
	}
	if chain, ok := pathBetween(e, anchor); ok {
		ups := make([]string, len(chain))
		for i := range ups {
			ups[i] = ".."
		}
		return strings.Join(ups, "/")
	}
	return e.Path
}
