package core

import (
	"math"

	"busytime/internal/interval"
)

// machindex is the machine-selection index behind Schedule.FirstFitAssign:
// it makes the greedy "lowest-indexed machine that fits" scan sublinear by
// combining two structures, both maintained incrementally by Schedule.insert
// and by rejected capacity probes.
//
//  1. A segment tree over machine slots keyed by each machine's busy hull
//     [min,max] and peak load. It answers "lowest-indexed machine whose hull
//     is disjoint from window W or whose peak ≤ g − d" in O(log M). Such a
//     machine is guaranteed to accept the job, so the scan never has to look
//     past it; the answer is exactly where the paper's FirstFit would stop
//     if every earlier machine rejects.
//
//  2. A per-bucket saturation bitmap over the instance's compressed time
//     axis. Bit m of bucket b means "machine m is loaded to ≥ g at every
//     point of bucket b". Bits are derived from saturated runs extracted by
//     rejected capacity probes, which are durable because machines only gain
//     jobs. A probe window overlapping a set bucket therefore contains a
//     saturated point, so the machine provably rejects and whole runs of
//     saturated machines are skipped with word-wide bit operations.
//
// The bitmap is word-major: column w holds one word per bucket for machines
// 64w…64w+63, so opening a machine word appends one cleared column and never
// moves existing bits, and a scan reads a column only when it reaches it.
// Summary words OR each column over groups of 32 buckets, so a window costs
// at most 62 raw loads at its ragged ends plus one load per whole group.
// Columns are capped by a byte budget rather than a machine count: the
// budget covers few machines on a wide axis and every machine on a narrow
// one, and machines past it read as unblocked, which only costs skips.
//
// Buckets are the elementary segments of the instance axis (distinct job
// endpoints, decimated past maxTimeBuckets), so bitmap memory scales with
// distinct event times rather than the raw horizon. All bucket
// geometry lives in interval.Axis; the index only consumes precomputed
// bucket ranges.
//
// Soundness is one-directional by construction: the bitmap may only skip
// machines that would certainly reject, and the segment tree may only stop
// the scan at a machine that certainly accepts, so the indexed scan produces
// byte-identical schedules to the linear probe loop.
type machindex struct {
	// Saturation bitmap; nb == 0 disables it (degenerate axis).
	nb    int
	ng    int      // summary groups per column: ⌈nb/32⌉
	words int      // open columns (64 machines each)
	mask  []uint64 // words × nb, word-major: column w is mask[w·nb:(w+1)·nb]
	sum   []uint64 // words × ng: sum[w·ng+k] ORs column w over buckets 32k…32k+31

	// Segment tree over machine slots; standard 1-based array layout with
	// leaves at [size, 2·size). Unopened slots never qualify.
	size     int
	nm       int
	minEnd   []float64 // min busy-hull end per subtree (+inf when empty)
	maxStart []float64 // max busy-hull start per subtree (−inf when empty)
	minPeak  []int32   // min peak load per subtree

	// allocs counts backing-array growth, feeding ScratchStats; a warm index
	// recycled at the same shape performs none.
	allocs int
}

// maxBitmapBytes budgets the raw bitmap columns of one schedule (summary
// words add 1/32 on top): 512 machines at the maximum 2¹⁶ buckets, every
// machine on an axis of a few dozen buckets.
const maxBitmapBytes = 4 << 20

const unopenedPeak = math.MaxInt32

// reset reconfigures the index for an instance axis, retaining allocations
// where shapes allow, and drops all machines.
func (ix *machindex) reset(ia *instanceAxis) {
	ix.nm, ix.words = 0, 0
	ix.nb, ix.ng = ia.nb, (ia.nb+31)>>5
	ix.mask, ix.sum = ix.mask[:0], ix.sum[:0]
	ix.clearTree(1)
}

// clearTree (re)shapes the segment tree for at least want leaves — keeping
// the larger of want and the current size, so a recycled index does not
// re-grow machine by machine — and resets every slot to unopened.
func (ix *machindex) clearTree(want int) {
	size := 1
	for size < want {
		size <<= 1
	}
	if size < ix.size {
		size = ix.size
	}
	if 2*size > cap(ix.minEnd) {
		ix.allocs++
		ix.minEnd = make([]float64, 2*size)
		ix.maxStart = make([]float64, 2*size)
		ix.minPeak = make([]int32, 2*size)
	} else {
		ix.minEnd = ix.minEnd[:2*size]
		ix.maxStart = ix.maxStart[:2*size]
		ix.minPeak = ix.minPeak[:2*size]
	}
	for i := range ix.minEnd {
		ix.minEnd[i] = math.Inf(1)
		ix.maxStart[i] = math.Inf(-1)
		ix.minPeak[i] = unopenedPeak
	}
	ix.size = size
}

// growTree doubles the tree to hold at least want leaves, preserving the nm
// open leaves in place (no temporary copies, and no allocation when the
// retained capacity suffices).
func (ix *machindex) growTree(want int) {
	oldSize, m := ix.size, ix.nm
	size := oldSize
	if size == 0 {
		size = 1
	}
	for size < want {
		size <<= 1
	}
	if 2*size > cap(ix.minEnd) {
		ix.allocs++
		minEnd := make([]float64, 2*size)
		maxStart := make([]float64, 2*size)
		minPeak := make([]int32, 2*size)
		copy(minEnd[size:], ix.minEnd[oldSize:oldSize+m])
		copy(maxStart[size:], ix.maxStart[oldSize:oldSize+m])
		copy(minPeak[size:], ix.minPeak[oldSize:oldSize+m])
		ix.minEnd, ix.maxStart, ix.minPeak = minEnd, maxStart, minPeak
	} else {
		ix.minEnd = ix.minEnd[:2*size]
		ix.maxStart = ix.maxStart[:2*size]
		ix.minPeak = ix.minPeak[:2*size]
		// size ≥ 2·oldSize ≥ oldSize+m, so the leaf block moves strictly
		// rightward and a forward copy never clobbers unread slots.
		copy(ix.minEnd[size:size+m], ix.minEnd[oldSize:oldSize+m])
		copy(ix.maxStart[size:size+m], ix.maxStart[oldSize:oldSize+m])
		copy(ix.minPeak[size:size+m], ix.minPeak[oldSize:oldSize+m])
	}
	for i := size + m; i < 2*size; i++ {
		ix.minEnd[i] = math.Inf(1)
		ix.maxStart[i] = math.Inf(-1)
		ix.minPeak[i] = unopenedPeak
	}
	for n := size - 1; n >= 1; n-- {
		l, r := 2*n, 2*n+1
		ix.minEnd[n] = math.Min(ix.minEnd[l], ix.minEnd[r])
		ix.maxStart[n] = math.Max(ix.maxStart[l], ix.maxStart[r])
		if ix.minPeak[l] < ix.minPeak[r] {
			ix.minPeak[n] = ix.minPeak[l]
		} else {
			ix.minPeak[n] = ix.minPeak[r]
		}
	}
	ix.size = size
}

// addMachine registers the next machine slot (empty: no hull, peak 0).
func (ix *machindex) addMachine() {
	m := ix.nm
	if m >= ix.size {
		ix.growTree(m + 1)
	}
	ix.nm++
	ix.setLeaf(m, math.Inf(-1), math.Inf(1), 0)
	// A new machine word gets a column while the raw columns fit the budget.
	if ix.nm > 64*ix.words && ix.nb > 0 && 8*ix.nb*(ix.words+1) <= maxBitmapBytes {
		ix.words++
		ix.mask = ix.appendCleared(ix.mask, ix.nb)
		ix.sum = ix.appendCleared(ix.sum, ix.ng)
	}
}

// setLeaf writes a leaf and re-aggregates its ancestors.
func (ix *machindex) setLeaf(m int, hullStart, hullEnd float64, peak int32) {
	n := ix.size + m
	ix.minEnd[n], ix.maxStart[n], ix.minPeak[n] = hullEnd, hullStart, peak
	for n >>= 1; n >= 1; n >>= 1 {
		l, r := 2*n, 2*n+1
		ix.minEnd[n] = math.Min(ix.minEnd[l], ix.minEnd[r])
		ix.maxStart[n] = math.Max(ix.maxStart[l], ix.maxStart[r])
		if ix.minPeak[l] < ix.minPeak[r] {
			ix.minPeak[n] = ix.minPeak[l]
		} else {
			ix.minPeak[n] = ix.minPeak[r]
		}
	}
}

// update refreshes machine m's hull and peak after an insertion.
func (ix *machindex) update(m int, hull interval.Interval, peak int) {
	p := int32(unopenedPeak - 1)
	if peak < int(p) {
		p = int32(peak)
	}
	ix.setLeaf(m, hull.Start, hull.End, p)
}

// qualifies reports whether subtree n can contain a machine that trivially
// accepts a job with window w and slack g−d: hull entirely before the
// window, hull entirely after it, or peak within the slack.
func (ix *machindex) qualifies(n int, w interval.Interval, slack int32) bool {
	return ix.minEnd[n] < w.Start || ix.maxStart[n] > w.End || ix.minPeak[n] <= slack
}

// firstTrivial returns the lowest-indexed machine guaranteed to accept a job
// with window w and demand g−slack, or −1 when no machine trivially fits.
// All three leaf conditions imply acceptance: a disjoint hull admits any job
// with demand ≤ g (an empty machine reports peak 0 and is covered by the
// slack condition), and peak ≤ g−d bounds the load anywhere inside w.
func (ix *machindex) firstTrivial(w interval.Interval, slack int32) int {
	if ix.nm == 0 || !ix.qualifies(1, w, slack) {
		return -1
	}
	n := 1
	for n < ix.size {
		if ix.qualifies(2*n, w, slack) {
			n = 2 * n
		} else {
			n = 2*n + 1
		}
	}
	m := n - ix.size
	if m >= ix.nm {
		return -1
	}
	return m
}

// appendCleared extends s by n zero words, reallocating to the exact length
// when the retained capacity does not suffice.
func (ix *machindex) appendCleared(s []uint64, n int) []uint64 {
	if len(s)+n <= cap(s) {
		s = s[:len(s)+n]
		clear(s[len(s)-n:])
		return s
	}
	ix.allocs++
	grown := make([]uint64, len(s)+n)
	copy(grown, s)
	return grown
}

// markRun records that machine m is loaded to ≥ g at every point of buckets
// [lo, hi]; machines past the bitmap budget are not tracked.
func (ix *machindex) markRun(m, lo, hi int) {
	w := m >> 6
	if w >= ix.words || lo > hi {
		return
	}
	bit := uint64(1) << (m & 63)
	run := ix.mask[w*ix.nb+lo : w*ix.nb+hi+1]
	for i := range run {
		run[i] |= bit
	}
	groups := ix.sum[w*ix.ng+lo>>5 : w*ix.ng+hi>>5+1]
	for i := range groups {
		groups[i] |= bit
	}
}

// blockedWord returns the saturation word of machines 64w…64w+63 over the
// buckets [lo, hi] (a window's axis overlap range): a set bit means the
// machine has a fully saturated bucket intersecting the window and therefore
// provably rejects any job on it. Columns past the budget read 0. Whole
// 32-bucket groups are read from the summary words, the partial groups at
// either end from the raw column.
func (ix *machindex) blockedWord(w, lo, hi int) uint64 {
	if w >= ix.words || lo > hi {
		return 0
	}
	col := ix.mask[w*ix.nb : (w+1)*ix.nb]
	// Groups glo…ghi−1 lie wholly inside [lo, hi].
	glo, ghi := (lo+31)>>5, (hi+1)>>5
	var acc uint64
	if glo >= ghi {
		for _, x := range col[lo : hi+1] {
			acc |= x
		}
		return acc
	}
	for _, x := range col[lo : glo<<5] {
		acc |= x
	}
	for _, x := range ix.sum[w*ix.ng+glo : w*ix.ng+ghi] {
		acc |= x
	}
	for _, x := range col[ghi<<5 : hi+1] {
		acc |= x
	}
	return acc
}
