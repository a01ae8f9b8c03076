package interval

import (
	"math"
	"sort"
)

// Axis is a compressed time axis: a strictly increasing sequence of bucket
// boundaries derived from the distinct event times of a workload. Index
// structures keyed on Axis buckets (saturation bitmaps, time shards) scale
// with the number of distinct endpoints instead of the raw time horizon, and
// on integral or wave-shaped workloads with few distinct times they collapse
// to a handful of buckets.
//
// Bucket b is the closed range [Boundary(b), Boundary(b+1)]. Consecutive
// buckets share their boundary point, mirroring the closed-interval
// semantics of the scheduling model: an event at a shared boundary belongs
// to both buckets.
//
// Range queries run through a uniform acceleration grid built once with the
// axis: a query first maps its time to a grid cell by one multiplication,
// then binary-searches only the handful of boundaries the cell brackets, so
// lookups are O(1) expected on near-uniform axes and O(log k) in a cell of
// k boundaries in the worst case.
type Axis struct {
	bounds []float64
	// Acceleration grid: cell c of [t0, t0+ncells/inv] brackets the
	// boundary indices [grid[c], grid[c+1]]; ncells = len(grid)-2.
	grid []int32
	t0   float64
	inv  float64
}

// NewAxis builds an axis whose boundaries are the distinct values of events,
// decimated with a uniform stride when the bucket count would exceed
// maxBuckets (maxBuckets <= 0 means unbounded). The events slice is sorted
// and deduplicated in place. Fewer than two distinct events yield the
// degenerate axis with NB() == 0.
func NewAxis(events []float64, maxBuckets int) Axis {
	if len(events) == 0 {
		return Axis{}
	}
	sort.Float64s(events)
	w := 1
	for i := 1; i < len(events); i++ {
		if events[i] != events[w-1] {
			events[w] = events[i]
			w++
		}
	}
	events = events[:w]
	if len(events) < 2 {
		return Axis{}
	}
	if segs := len(events) - 1; maxBuckets > 0 && segs > maxBuckets {
		stride := (segs + maxBuckets - 1) / maxBuckets
		w = 0
		for i := 0; i < len(events)-1; i += stride {
			events[w] = events[i]
			w++
		}
		events[w] = events[len(events)-1]
		events = events[:w+1]
	}
	ax := Axis{bounds: events, t0: events[0]}
	ncells := len(events) - 1
	ax.inv = float64(ncells) / (events[len(events)-1] - events[0])
	if !(ax.inv > 0) || math.IsInf(ax.inv, 1) {
		// Degenerate span; pos falls back to a plain binary search.
		ax.inv = 0
		return ax
	}
	// grid[c] = first boundary index whose cell (computed with the exact
	// query-side formula, so float rounding cancels) is >= c.
	ax.grid = make([]int32, ncells+2)
	i := 0
	for c := 0; c <= ncells+1; c++ {
		for i < len(events) && ax.cellOf(events[i]) < c {
			i++
		}
		ax.grid[c] = int32(i)
	}
	return ax
}

// cellOf maps a time to its acceleration-grid cell, clamped to the grid.
func (ax Axis) cellOf(t float64) int {
	c := int((t - ax.t0) * ax.inv)
	if c < 0 {
		return 0
	}
	if max := len(ax.grid) - 2; c > max {
		return max
	}
	return c
}

// pos returns the first boundary index i with Boundary(i) >= t (len(bounds)
// when every boundary is smaller), equivalent to sort.SearchFloat64s over
// the boundaries but restricted to the grid cell bracketing t.
func (ax Axis) pos(t float64) int {
	if t <= ax.bounds[0] {
		return 0
	}
	if t > ax.bounds[len(ax.bounds)-1] {
		return len(ax.bounds)
	}
	if ax.grid == nil {
		return sort.SearchFloat64s(ax.bounds, t)
	}
	c := ax.cellOf(t)
	lo, hi := int(ax.grid[c]), int(ax.grid[c+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ax.bounds[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// NB returns the number of buckets.
func (ax Axis) NB() int {
	if len(ax.bounds) < 2 {
		return 0
	}
	return len(ax.bounds) - 1
}

// Boundary returns the i-th bucket boundary, 0 <= i <= NB().
func (ax Axis) Boundary(i int) float64 { return ax.bounds[i] }

// Hull returns the covered range [Boundary(0), Boundary(NB())]; ok is false
// for the degenerate axis.
func (ax Axis) Hull() (Interval, bool) {
	if ax.NB() == 0 {
		return Interval{}, false
	}
	return Interval{Start: ax.bounds[0], End: ax.bounds[len(ax.bounds)-1]}, true
}

// OverlapRange returns the inclusive range of buckets whose closed range
// intersects the closed interval iv — touching at a single point counts, so
// the range is exactly the set of buckets where iv can contribute load.
// lo > hi means no bucket intersects. For iv inside the hull the returned
// buckets also cover iv: Boundary(lo) <= iv.Start and Boundary(hi+1) >=
// iv.End.
func (ax Axis) OverlapRange(iv Interval) (lo, hi int) {
	nb := ax.NB()
	if nb == 0 || iv.End < ax.bounds[0] || iv.Start > ax.bounds[nb] {
		return 0, -1
	}
	// First bucket touching iv: smallest b with Boundary(b+1) >= iv.Start.
	lo = ax.pos(iv.Start) - 1
	if lo < 0 {
		lo = 0
	}
	if lo > nb-1 {
		lo = nb - 1
	}
	// Last bucket touching iv: largest b with Boundary(b) <= iv.End.
	hi = ax.pos(iv.End)
	if hi == len(ax.bounds) || ax.bounds[hi] > iv.End {
		hi--
	}
	if hi > nb-1 {
		hi = nb - 1
	}
	return lo, hi
}

// Interior returns the inclusive range of boundary indices strictly inside
// the closed interval iv: every returned index i satisfies
// iv.Start < Boundary(i) < iv.End. lo > hi means no boundary is interior.
// Cutting the time axis at an interior boundary of a job splits that job's
// window across the cut, so Interior is exactly the "which cuts would this
// job cross" query of the time-sharding layer.
func (ax Axis) Interior(iv Interval) (lo, hi int) {
	if ax.NB() == 0 {
		return 0, -1
	}
	lo = ax.pos(iv.Start)
	if lo < len(ax.bounds) && ax.bounds[lo] == iv.Start {
		lo++
	}
	hi = ax.pos(iv.End) - 1
	if last := len(ax.bounds) - 1; hi > last {
		hi = last
	}
	if lo > hi {
		return 0, -1
	}
	return lo, hi
}

// WithinRange returns the inclusive range of buckets entirely contained in
// the closed interval iv; lo > hi means none. Every returned bucket
// satisfies iv.Start <= Boundary(b) and Boundary(b+1) <= iv.End, so marking
// these buckets with a property that holds throughout iv never over-claims.
func (ax Axis) WithinRange(iv Interval) (lo, hi int) {
	nb := ax.NB()
	if nb == 0 {
		return 0, -1
	}
	lo = ax.pos(iv.Start)
	hi = ax.pos(iv.End)
	if hi == len(ax.bounds) || ax.bounds[hi] > iv.End {
		hi--
	}
	hi-- // bucket hi is bounded above by Boundary(hi+1)
	if hi > nb-1 {
		hi = nb - 1
	}
	if lo > hi {
		return 0, -1
	}
	return lo, hi
}
