package core

// machindex is the machine-selection index behind the FirstFit and BestFit
// rules (firstFit, bestFit): a per-bucket saturation bitmap over the
// instance's compressed time axis. Bit m of bucket b (its raw bit, or the group-full
// bit of its group, below) means "machine m is loaded to ≥ g at every point
// of bucket b". Bits come from the runs the capacity oracle
// reports at a window's maximum load: a query that rejects at load g marks
// every such run, and a placement that fills a machine — the job's demand
// d on an exact load g − d — marks the runs it brings to g right after the
// job is inserted. Both are durable because machines only gain jobs. A
// probe window overlapping a set bucket therefore contains a saturated
// point, so the machine provably rejects and whole runs of saturated
// machines are skipped with word-wide bit operations.
//
// The bitmap is word-major: column w holds one word per bucket for machines
// 64w…64w+63, so opening a machine word appends one column, which the last
// reset left zero, and never moves existing bits, and a scan reads a column
// only when it reaches it.
// Above the raw column sit two levels with one word per column per group of
// 32 buckets. A group-full word's bit says the machine is saturated on every
// bucket of the group: markRun writes a run's whole groups there and raw
// words only at the run's two ragged ends, so a mark costs at most 62 raw
// stores plus one group-full store per whole group. A summary word ORs the
// group's raw words with its group-full word, so a group's raw bits are a
// subset of its summary. A window spanning whole groups reads their summary
// words, and each ragged end reads its group's summary, then its group-full
// word, then raw words only until the result holds every bit of that
// summary; a window without a whole group reads its raw words and the
// group-full words of the one or two groups it lies in. Columns are capped by
// a byte budget rather than a machine count: the budget covers few machines
// on a wide axis and every machine on a narrow one, and machines past it read
// as unblocked, which only costs skips.
//
// Buckets are the elementary segments of the instance axis (distinct job
// endpoints, decimated past maxTimeBuckets), so bitmap memory scales with
// distinct event times rather than the raw horizon. All bucket geometry
// lives in Axis, in endpoint ranks; the index only consumes the bucket
// ranges it computes.
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
	ng    int      // 32-bucket groups per column: ⌈nb/32⌉
	nm    int      // open machines
	words int      // open columns (64 machines each)
	mask  []uint64 // words × nb, word-major: column w is mask[w·nb:(w+1)·nb]
	// full[w·ng+k]: machines of column w saturated on all of buckets
	// 32k…32k+31 (an axis's last, partial group never gets a bit);
	// sum[w·ng+k] ORs full[w·ng+k] with column w's raw words of group k.
	full, sum []uint64

	// loads and stores count the bitmap words blockedWord read and markRun
	// wrote since reset, per call (WorkCounts.BitmapLoads, BitmapStores).
	loads, stores int
	// markLo and markHi bound the buckets markRun wrote since reset (markLo
	// > markHi: none), the only words reset has to clear.
	markLo, markHi int

	// allocs counts backing-array growth, feeding ScratchStats; a warm index
	// recycled at the same shape performs none.
	allocs int
}

// maxBitmapBytes budgets the raw bitmap columns of one schedule (the
// group-full and summary levels add 1/32 each on top): 512 machines at the
// maximum 2¹⁶ buckets, every machine on an axis of a few dozen buckets.
const maxBitmapBytes = 4 << 20

// reset reconfigures the index for an instance axis, retaining allocations
// where shapes allow, and drops all machines. It first clears the buckets
// the previous schedule marked, in every column it opened and in the
// previous layout, so every word of the backing arrays reads zero again,
// and returns the number of words it cleared.
func (ix *machindex) reset(ia *Axis) (cleared int) {
	if lo, hi := ix.markLo, ix.markHi; lo <= hi {
		glo, ghi := lo>>5, hi>>5+1
		for w := 0; w < ix.words; w++ {
			clear(ix.mask[w*ix.nb+lo : w*ix.nb+hi+1])
			clear(ix.full[w*ix.ng+glo : w*ix.ng+ghi])
			clear(ix.sum[w*ix.ng+glo : w*ix.ng+ghi])
		}
		cleared = ix.words * (hi + 1 - lo + 2*(ghi-glo))
	}
	ix.nm, ix.words, ix.loads, ix.stores = 0, 0, 0, 0
	ix.nb, ix.ng = ia.nb, (ia.nb+31)>>5
	ix.markLo, ix.markHi = ix.nb, -1
	ix.mask, ix.full, ix.sum = ix.mask[:0], ix.full[:0], ix.sum[:0]
	return cleared
}

// addMachine registers the next machine slot. A new machine word gets a
// column while the raw columns fit the budget.
func (ix *machindex) addMachine() {
	ix.nm++
	if ix.nm > 64*ix.words && ix.nb > 0 && 8*ix.nb*(ix.words+1) <= maxBitmapBytes {
		ix.words++
		ix.mask = ix.extend(ix.mask, ix.nb)
		ix.full = ix.extend(ix.full, ix.ng)
		ix.sum = ix.extend(ix.sum, ix.ng)
	}
}

// extend extends s by n words, which read zero: reset leaves every word
// past the open columns zero, so retained capacity is taken as it is, and a
// reallocation to the exact length is zeroed by make.
func (ix *machindex) extend(s []uint64, n int) []uint64 {
	if len(s)+n <= cap(s) {
		return s[:len(s)+n]
	}
	ix.allocs++
	grown := make([]uint64, len(s)+n)
	copy(grown, s)
	return grown
}

// markRun records that machine m is loaded to ≥ g at every point of buckets
// [lo, hi]; machines past the bitmap budget are not tracked. The 32-bucket
// groups wholly inside the run get their group-full bit, the ragged ends
// their raw bits, and every group the run touches its summary bit.
func (ix *machindex) markRun(m, lo, hi int) {
	w := m >> 6
	if w >= ix.words || lo > hi {
		return
	}
	bit := uint64(1) << (m & 63)
	ix.markLo, ix.markHi = min(ix.markLo, lo), max(ix.markHi, hi)
	// The whole groups' buckets are [a, b); empty at hi+1 when there is none.
	a, b := hi+1, hi+1
	if glo, ghi := (lo+31)>>5, (hi+1)>>5; glo < ghi {
		a, b = glo<<5, ghi<<5
	}
	col := ix.mask[w*ix.nb : (w+1)*ix.nb]
	orWords(col[lo:a], bit)
	orWords(col[b:hi+1], bit)
	orWords(ix.full[w*ix.ng+a>>5:w*ix.ng+b>>5], bit)
	orWords(ix.sum[w*ix.ng+lo>>5:w*ix.ng+hi>>5+1], bit)
	// Raw words at both ends, group-full words, summary words.
	ix.stores += a - lo + hi + 1 - b + (b-a)>>5 + hi>>5 - lo>>5 + 1
}

// orWords sets bit in every word of s.
func orWords(s []uint64, bit uint64) {
	for i := range s {
		s[i] |= bit
	}
}

// blockedWord returns the saturation word of machines 64w…64w+63 over the
// buckets [lo, hi] (a window's axis overlap range): a set bit means the
// machine has a fully saturated bucket intersecting the window and therefore
// provably rejects any job on it. Columns past the budget read 0. Whole
// 32-bucket groups are read from the summary words; a ragged end is read
// from its group's summary, group-full and raw words (raggedEnd).
func (ix *machindex) blockedWord(w, lo, hi int) uint64 {
	if w >= ix.words || lo > hi {
		return 0
	}
	col := ix.mask[w*ix.nb : (w+1)*ix.nb]
	// Groups glo…ghi−1 lie wholly inside [lo, hi].
	glo, ghi := (lo+31)>>5, (hi+1)>>5
	if glo >= ghi {
		// At most 62 raw words, in one group or two, ORed four at a time:
		// nearly every window on a short axis or in small components
		// takes this path.
		acc := ix.full[w*ix.ng+lo>>5] | ix.full[w*ix.ng+hi>>5]
		raw := col[lo : hi+1]
		for ; len(raw) >= 4; raw = raw[4:] {
			acc |= raw[0] | raw[1] | raw[2] | raw[3]
		}
		for _, x := range raw {
			acc |= x
		}
		ix.loads += hi - lo + 3
		return acc
	}
	full, sum := ix.full[w*ix.ng:(w+1)*ix.ng], ix.sum[w*ix.ng:(w+1)*ix.ng]
	var acc uint64
	for _, x := range sum[glo:ghi] {
		acc |= x
	}
	n := ghi - glo
	if lo < glo<<5 {
		var k int
		acc, k = raggedEnd(acc, col[lo:glo<<5], full, sum, glo-1)
		n += k
	}
	if hi >= ghi<<5 {
		var k int
		acc, k = raggedEnd(acc, col[ghi<<5:hi+1], full, sum, ghi)
		n += k
	}
	ix.loads += n
	return acc
}

// raggedEnd ORs into acc the saturation of a window's ragged end: the raw
// words raw of group k of a column whose group-full and summary words are
// full and sum. The group's raw bits are a subset of its summary, so it
// stops as soon as acc holds every bit of sum[k]: at once, after full[k], or
// partway through raw. It returns acc and the number of words it read.
func raggedEnd(acc uint64, raw, full, sum []uint64, k int) (uint64, int) {
	s := sum[k]
	if s&^acc == 0 {
		return acc, 1
	}
	if acc |= full[k]; s&^acc == 0 {
		return acc, 2
	}
	for i, x := range raw {
		if acc |= x; s&^acc == 0 {
			return acc, i + 3
		}
	}
	return acc, len(raw) + 2
}
