package interval

import (
	"container/heap"
	"slices"
	"sort"
)

// Event is a sweep-line event: Delta is +1 at an interval start and -1 at an
// interval end.
type Event struct {
	T     float64
	Delta int
}

// Events returns the start/end events of the set sorted by coordinate.
// At equal coordinates, start events come first: with closed intervals a job
// ending at t and a job starting at t are simultaneously active at t, so the
// sweep must reach their combined depth before decrementing.
func (s Set) Events() []Event {
	ev := make([]Event, 0, 2*len(s))
	for _, iv := range s {
		ev = append(ev, Event{T: iv.Start, Delta: +1}, Event{T: iv.End, Delta: -1})
	}
	slices.SortFunc(ev, func(a, b Event) int {
		if a.T != b.T {
			return cmpFloat(a.T, b.T)
		}
		return b.Delta - a.Delta // starts before ends
	})
	return ev
}

// MaxDepth returns the maximum number of intervals simultaneously active at
// any single point (closed semantics: touching intervals count together).
// This equals the maximum clique size of the induced interval graph.
func (s Set) MaxDepth() int {
	depth, best := 0, 0
	for _, ev := range s.Events() {
		depth += ev.Delta
		if depth > best {
			best = depth
		}
	}
	return best
}

// MinColoring returns an optimal coloring of the intersection graph of s
// (closed semantics: touching intervals conflict) as its color classes:
// class c lists, in increasing order, the indices of the intervals with
// color c, so the members of a class are pairwise disjoint. One sweep in
// (start, end, index) order gives each interval the smallest color that no
// earlier interval still covering its start holds; on interval graphs this
// uses exactly MaxDepth colors.
func MinColoring(s Set) [][]int {
	n := len(s)
	byStart, byEnd := make([]int, n), make([]int, n)
	for i := range byStart {
		byStart[i], byEnd[i] = i, i
	}
	slices.SortFunc(byStart, func(a, b int) int {
		if c := cmpFloat(s[a].Start, s[b].Start); c != 0 {
			return c
		}
		if c := cmpFloat(s[a].End, s[b].End); c != 0 {
			return c
		}
		return a - b
	})
	slices.SortFunc(byEnd, func(a, b int) int { return cmpFloat(s[a].End, s[b].End) })
	colors := make([]int, n)
	free := &colorHeap{} // colors of intervals ending before the sweep point
	used, ended := 0, 0
	for _, v := range byStart {
		// An interval ending before s[v] starts also starts before it, so
		// the sweep has already colored it.
		for ; ended < n && s[byEnd[ended]].End < s[v].Start; ended++ {
			heap.Push(free, colors[byEnd[ended]])
		}
		if free.Len() > 0 {
			colors[v] = heap.Pop(free).(int)
		} else {
			colors[v] = used
			used++
		}
	}
	classes := make([][]int, used)
	for v, c := range colors {
		classes[c] = append(classes[c], v)
	}
	return classes
}

// colorHeap is a min-heap of colors.
type colorHeap struct{ sort.IntSlice }

func (h *colorHeap) Push(x any) { h.IntSlice = append(h.IntSlice, x.(int)) }

func (h *colorHeap) Pop() any {
	last := len(h.IntSlice) - 1
	x := h.IntSlice[last]
	h.IntSlice = h.IntSlice[:last]
	return x
}

// DepthAt returns the number of intervals containing the point t.
func (s Set) DepthAt(t float64) int {
	n := 0
	for _, iv := range s {
		if iv.Contains(t) {
			n++
		}
	}
	return n
}

// MaxDepthWithin returns the maximum point depth of the set restricted to the
// closed window w. Intervals not intersecting w are ignored. The result is
// the largest number of set members simultaneously active at some t ∈ w.
func (s Set) MaxDepthWithin(w Interval) int {
	clipped := make(Set, 0, len(s))
	for _, iv := range s {
		if x, ok := iv.Intersect(w); ok {
			clipped = append(clipped, x)
		}
	}
	return clipped.MaxDepth()
}

// DepthSegment is a maximal segment of constant open-interior depth produced
// by DepthProfile.
type DepthSegment struct {
	Window Interval
	Depth  int
}

// DepthProfile returns the piecewise-constant depth function of the set over
// the open interiors between consecutive event coordinates. Segments of depth
// zero inside the hull are included; zero-length segments are not. Point
// depths at event coordinates can exceed the surrounding segment depths
// (touching intervals) but carry no measure and are omitted.
func (s Set) DepthProfile() []DepthSegment {
	if len(s) == 0 {
		return nil
	}
	// For measure purposes, ends must be processed before starts at equal
	// coordinates so that the open segment between x and the next coordinate
	// reflects only intervals whose interior covers it.
	ev := make([]Event, 0, 2*len(s))
	for _, iv := range s {
		ev = append(ev, Event{T: iv.Start, Delta: +1}, Event{T: iv.End, Delta: -1})
	}
	slices.SortFunc(ev, func(a, b Event) int {
		if a.T != b.T {
			return cmpFloat(a.T, b.T)
		}
		return a.Delta - b.Delta // ends before starts
	})
	var segs []DepthSegment
	depth := 0
	prev := ev[0].T
	for _, e := range ev {
		if e.T > prev {
			segs = append(segs, DepthSegment{Window: Interval{Start: prev, End: e.T}, Depth: depth})
			prev = e.T
		}
		depth += e.Delta
	}
	return coalesce(segs)
}

func coalesce(segs []DepthSegment) []DepthSegment {
	out := segs[:0]
	for _, sg := range segs {
		if n := len(out); n > 0 && out[n-1].Depth == sg.Depth && out[n-1].Window.End == sg.Window.Start {
			out[n-1].Window.End = sg.Window.End
			continue
		}
		out = append(out, sg)
	}
	return out
}

// IntegrateDepth computes ∫ f(depth(t)) dt over the hull of the set, using
// the open-interior depth profile. Passing f = identity yields TotalLen;
// f = ceil(d/g) yields the fractional machine lower bound.
func (s Set) IntegrateDepth(f func(depth int) float64) float64 {
	var sum float64
	for _, sg := range s.DepthProfile() {
		sum += f(sg.Depth) * sg.Window.Len()
	}
	return sum
}
