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
// The boundaries sit at fixed ranks of the sorted distinct events:
// Boundary(b) is the event of rank b·Stride() for b < NB(), and
// Boundary(NB()) the largest event, of rank Distinct()−1. A caller holding
// the ranks NewAxis hands out maps them to buckets by integer arithmetic.
//
// Time queries (OverlapRange, Interior) run through a uniform acceleration
// grid built once with the axis: a query first maps its time to a grid cell
// by one multiplication, then binary-searches only the handful of
// boundaries the cell brackets, so lookups are O(1) expected on near-uniform
// axes and O(log k) in a cell of k boundaries in the worst case.
type Axis struct {
	bounds []float64
	// stride is the decimation stride and distinct the number of distinct
	// events (see Stride and Distinct).
	stride, distinct int
	// Acceleration grid: cell c of [t0, t0+ncells/inv] brackets the
	// boundary indices [grid[c], grid[c+1]]; ncells = len(grid)-2.
	grid []int32
	t0   float64
	inv  float64
}

// NewAxis builds an axis whose boundaries are the distinct values of events,
// decimated with a uniform stride when the bucket count would exceed
// maxBuckets (maxBuckets <= 0 means unbounded). Fewer than two distinct
// events yield the degenerate axis with NB() == 0. events is not modified.
//
// A non-nil ranks, of len(events), receives each event's rank among the
// distinct values, 0 for the smallest: ranks[i] < ranks[k] exactly when
// events[i] < events[k], and the ranks are equal exactly when the values
// are (−0 and +0 included). They come from the same sort that orders the
// boundaries.
func NewAxis(events []float64, maxBuckets int, ranks []int32) Axis {
	ord := sortByValue(events)
	// Rank the events, compacting one entry per distinct value to the
	// front of ord; d counts the distinct values seen.
	d := 0
	for _, e := range ord {
		if d == 0 || e.key != ord[d-1].key {
			ord[d] = e
			d++
		}
		if ranks != nil {
			ranks[e.idx] = int32(d - 1)
		}
	}
	ax := Axis{stride: 1, distinct: d}
	if d < 2 {
		return ax
	}
	if segs := d - 1; maxBuckets > 0 && segs > maxBuckets {
		ax.stride = (segs + maxBuckets - 1) / maxBuckets
	}
	nb := (d - 2 + ax.stride) / ax.stride
	ax.bounds = make([]float64, nb+1)
	for b := range nb {
		ax.bounds[b] = events[ord[b*ax.stride].idx]
	}
	ax.bounds[nb] = events[ord[d-1].idx]
	ax.t0 = ax.bounds[0]
	ax.inv = float64(nb) / (ax.bounds[nb] - ax.bounds[0])
	if !(ax.inv > 0) || math.IsInf(ax.inv, 1) {
		// Degenerate span; pos falls back to a plain binary search.
		ax.inv = 0
		return ax
	}
	// grid[c] = first boundary index whose cell (computed with the exact
	// query-side formula, so float rounding cancels) is >= c.
	ax.grid = make([]int32, nb+2)
	i := 0
	for c := 0; c <= nb+1; c++ {
		for i < len(ax.bounds) && ax.cellOf(ax.bounds[i]) < c {
			i++
		}
		ax.grid[c] = int32(i)
	}
	return ax
}

// keyedEvent is an event's position and its order key: the float's bits
// mapped to an unsigned integer whose order is the numeric order, with −0
// sharing +0's key.
type keyedEvent struct {
	key uint64
	idx int32
}

// radixBits is the digit width of sortByValue's radix passes; the counts
// of one digit take 8 KiB.
const radixBits = 11

// sortByValue returns the events' keys and positions in ascending order of
// value: an LSD radix sort over 11-bit digits of the keys, skipping the
// passes whose digit every key shares. At 2·10⁵ events it takes less than
// half the time of a comparison sort of the bare floats.
func sortByValue(events []float64) []keyedEvent {
	buf := make([]keyedEvent, 2*len(events))
	a, b := buf[:len(events)], buf[len(events):]
	for i, t := range events {
		u := math.Float64bits(t)
		switch {
		case t == 0:
			u = 1 << 63
		case u>>63 != 0:
			u = ^u // negative: larger magnitudes sort first
		default:
			u |= 1 << 63
		}
		a[i] = keyedEvent{u, int32(i)}
	}
	var count [1 << radixBits]int32
	const mask = 1<<radixBits - 1
	for shift := 0; shift < 64 && len(a) > 1; shift += radixBits {
		clear(count[:])
		for _, e := range a {
			count[e.key>>shift&mask]++
		}
		if int(count[a[0].key>>shift&mask]) == len(a) {
			continue
		}
		sum := int32(0)
		for i, c := range count {
			count[i], sum = sum, sum+c
		}
		for _, e := range a {
			digit := e.key >> shift & mask
			b[count[digit]] = e
			count[digit]++
		}
		a, b = b, a
	}
	return a
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

// Stride returns the decimation stride: 1 when every distinct event is a
// boundary, and s when Boundary(b) is the event of rank b·s for b < NB().
func (ax Axis) Stride() int { return ax.stride }

// Distinct returns the number of distinct events the axis was built from;
// Boundary(NB()) is the event of rank Distinct()−1.
func (ax Axis) Distinct() int { return ax.distinct }

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
