// Package interval provides closed-interval arithmetic and sweep-line
// primitives used throughout the busy-time scheduling library.
//
// Jobs in the paper are closed intervals [s, c]: two intervals that merely
// touch at a point intersect (they form an edge of the interval graph and
// both occupy a machine slot at the shared instant), but the shared point has
// measure zero and therefore contributes nothing to lengths, spans or any
// depth integral.
package interval

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// cmpFloat is the three-way comparator of finite float64 coordinates used by
// the slices.SortFunc orders in this package. NaN never reaches a sort (Check
// rejects it), so the IEEE comparison is a total order.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Interval is a closed interval [Start, End] on the real line.
// The zero value is the degenerate interval [0, 0].
type Interval struct {
	Start float64
	End   float64
}

// Errors of Check. They are sentinels, so a check never allocates; callers
// wrap them with context and match them with errors.Is.
var (
	// ErrNotFinite rejects a NaN or infinite endpoint: no schedule can hold
	// one, and an infinite span turns every busy-time sum into Inf or NaN.
	ErrNotFinite = errors.New("interval: endpoint not finite")
	// ErrReversed rejects an end before the start.
	ErrReversed = errors.New("interval: end before start")
)

// Check reports whether [start, end] is an interval a schedule can hold:
// both endpoints finite and start ≤ end. It is the library's one endpoint
// check; every constructor and decoder of intervals from outside data
// calls it.
func Check(start, end float64) error {
	if math.IsNaN(start) || math.IsNaN(end) || math.IsInf(start, 0) || math.IsInf(end, 0) {
		return ErrNotFinite
	}
	if end < start {
		return ErrReversed
	}
	return nil
}

// New returns the closed interval [start, end]. It panics when Check
// rejects the endpoints; callers construct intervals from validated data.
func New(start, end float64) Interval {
	if err := Check(start, end); err != nil {
		panic(fmt.Sprintf("%v: [%v, %v]", err, start, end))
	}
	return Interval{Start: start, End: end}
}

// Len returns the length End-Start of the interval.
func (iv Interval) Len() float64 { return iv.End - iv.Start }

// IsPoint reports whether the interval is degenerate (Start == End).
func (iv Interval) IsPoint() bool { return iv.Start == iv.End }

// Contains reports whether t lies in the closed interval.
func (iv Interval) Contains(t float64) bool { return iv.Start <= t && t <= iv.End }

// ContainsInterval reports whether o is entirely inside iv.
func (iv Interval) ContainsInterval(o Interval) bool {
	return iv.Start <= o.Start && o.End <= iv.End
}

// ProperlyContains reports whether o is inside iv and strictly shorter on at
// least one side (i.e. o ⊆ iv and o ≠ iv).
func (iv Interval) ProperlyContains(o Interval) bool {
	return iv.ContainsInterval(o) && (iv.Start < o.Start || o.End < iv.End)
}

// Overlaps reports whether the two closed intervals intersect, including the
// case where they merely touch at a point.
func (iv Interval) Overlaps(o Interval) bool {
	return iv.Start <= o.End && o.Start <= iv.End
}

// OverlapsOpen reports whether the two intervals share a set of positive
// measure (their open interiors intersect).
func (iv Interval) OverlapsOpen(o Interval) bool {
	return iv.Start < o.End && o.Start < iv.End
}

// Intersect returns the intersection of two intervals and whether it is
// non-empty (possibly a single point).
func (iv Interval) Intersect(o Interval) (Interval, bool) {
	s := math.Max(iv.Start, o.Start)
	e := math.Min(iv.End, o.End)
	if e < s {
		return Interval{}, false
	}
	return Interval{Start: s, End: e}, true
}

// Hull returns the smallest interval containing both iv and o.
func (iv Interval) Hull(o Interval) Interval {
	return Interval{Start: math.Min(iv.Start, o.Start), End: math.Max(iv.End, o.End)}
}

// Shift returns the interval translated by dt.
func (iv Interval) Shift(dt float64) Interval {
	return Interval{Start: iv.Start + dt, End: iv.End + dt}
}

// Scale returns the interval with both endpoints multiplied by k ≥ 0.
func (iv Interval) Scale(k float64) Interval {
	if k < 0 {
		panic("interval: negative scale")
	}
	return Interval{Start: iv.Start * k, End: iv.End * k}
}

func (iv Interval) String() string { return fmt.Sprintf("[%g,%g]", iv.Start, iv.End) }

// Set is a multiset of intervals. Sets are ordinary slices; functions that
// need an ordering sort a copy unless documented otherwise.
type Set []Interval

// Clone returns a copy of the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// TotalLen returns the sum of the interval lengths, len(I) in the paper.
func (s Set) TotalLen() float64 {
	var sum float64
	for _, iv := range s {
		sum += iv.Len()
	}
	return sum
}

// Hull returns the smallest interval containing every interval of the set.
// ok is false for an empty set.
func (s Set) Hull() (hull Interval, ok bool) {
	if len(s) == 0 {
		return Interval{}, false
	}
	hull = s[0]
	for _, iv := range s[1:] {
		hull = hull.Hull(iv)
	}
	return hull, true
}

// SortByStart sorts the set in place by start time, breaking ties by end time.
func (s Set) SortByStart() {
	slices.SortFunc(s, func(a, b Interval) int {
		if a.Start != b.Start {
			return cmpFloat(a.Start, b.Start)
		}
		return cmpFloat(a.End, b.End)
	})
}

// SortByLenDesc sorts the set in place by non-increasing length, breaking
// ties by start then end so that the order is deterministic.
func (s Set) SortByLenDesc() {
	slices.SortFunc(s, func(a, b Interval) int {
		la, lb := a.Len(), b.Len()
		if la != lb {
			return cmpFloat(lb, la)
		}
		if a.Start != b.Start {
			return cmpFloat(a.Start, b.Start)
		}
		return cmpFloat(a.End, b.End)
	})
}

// Union returns the union of the set as a minimal sorted slice of pairwise
// disjoint intervals. Touching intervals are merged.
func (s Set) Union() Set {
	if len(s) == 0 {
		return nil
	}
	return s.Clone().UnionInPlace()
}

// UnionInPlace is Union in the set's own memory: it sorts s by start, merges
// it in place and returns the merged prefix of s.
func (s Set) UnionInPlace() Set {
	if len(s) == 0 {
		return s
	}
	s.SortByStart()
	out := s[:1]
	for _, iv := range s[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// Span returns the measure of the union of the set, span(I) in the paper.
func (s Set) Span() float64 {
	return s.Union().TotalLen()
}

// IsPairwiseDisjoint reports whether no two intervals of the set share
// positive measure. Touching at a point is allowed.
func (s Set) IsPairwiseDisjoint() bool {
	sorted := s.Clone()
	sorted.SortByStart()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].End > sorted[i].Start {
			return false
		}
	}
	return true
}

// IsClique reports whether every pair of intervals in the set intersects
// (closed semantics). By Helly's property for intervals this is equivalent to
// all intervals sharing a common point.
func (s Set) IsClique() bool {
	_, ok := s.CommonPoint()
	return ok || len(s) <= 1
}

// CommonPoint returns a point contained in every interval of the set, if one
// exists. For an empty set ok is false.
func (s Set) CommonPoint() (t float64, ok bool) {
	if len(s) == 0 {
		return 0, false
	}
	lo, hi := s[0].Start, s[0].End
	for _, iv := range s[1:] {
		lo = math.Max(lo, iv.Start)
		hi = math.Min(hi, iv.End)
	}
	if lo > hi {
		return 0, false
	}
	return lo, true
}

// IsProper reports whether no interval of the set properly contains another,
// i.e. the set induces a proper interval graph.
func (s Set) IsProper() bool {
	for i := range s {
		for j := range s {
			if i != j && s[i].ProperlyContains(s[j]) {
				return false
			}
		}
	}
	return true
}
