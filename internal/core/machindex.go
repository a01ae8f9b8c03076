package core

// machindex is the machine-selection index behind Schedule.FirstFitAssign
// and Schedule.BestFit: a per-bucket saturation bitmap over the instance's
// compressed time axis. Bit m of bucket b means "machine m is loaded to ≥ g
// at every point of bucket b". Bits are derived from saturated runs
// extracted by rejected capacity probes, which are durable because machines
// only gain jobs. A probe window overlapping a set bucket therefore contains
// a saturated point, so the machine provably rejects and whole runs of
// saturated machines are skipped with word-wide bit operations.
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
// machines that would certainly reject, so the indexed scan produces
// byte-identical schedules to the linear probe loop. In particular it never
// skips a machine the O(1) hull and peak checks accept (a set bit means
// load g inside the window), so FirstFit's scan stops at the first such
// machine on its own.
type machindex struct {
	// nb == 0 disables the bitmap (degenerate axis).
	nb    int
	ng    int      // summary groups per column: ⌈nb/32⌉
	nm    int      // open machines
	words int      // open columns (64 machines each)
	mask  []uint64 // words × nb, word-major: column w is mask[w·nb:(w+1)·nb]
	sum   []uint64 // words × ng: sum[w·ng+k] ORs column w over buckets 32k…32k+31

	// allocs counts backing-array growth, feeding ScratchStats; a warm index
	// recycled at the same shape performs none.
	allocs int
}

// maxBitmapBytes budgets the raw bitmap columns of one schedule (summary
// words add 1/32 on top): 512 machines at the maximum 2¹⁶ buckets, every
// machine on an axis of a few dozen buckets.
const maxBitmapBytes = 4 << 20

// reset reconfigures the index for an instance axis, retaining allocations
// where shapes allow, and drops all machines.
func (ix *machindex) reset(ia *instanceAxis) {
	ix.nm, ix.words = 0, 0
	ix.nb, ix.ng = ia.nb, (ia.nb+31)>>5
	ix.mask, ix.sum = ix.mask[:0], ix.sum[:0]
}

// addMachine registers the next machine slot. A new machine word gets a
// column while the raw columns fit the budget.
func (ix *machindex) addMachine() {
	ix.nm++
	if ix.nm > 64*ix.words && ix.nb > 0 && 8*ix.nb*(ix.words+1) <= maxBitmapBytes {
		ix.words++
		ix.mask = ix.appendCleared(ix.mask, ix.nb)
		ix.sum = ix.appendCleared(ix.sum, ix.ng)
	}
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
