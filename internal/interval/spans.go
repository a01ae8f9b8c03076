package interval

import "sort"

// Spans maintains the union of a growing multiset of intervals as a sorted
// slice of pairwise-disjoint pieces (touching pieces are merged, matching
// Set.Union) together with the running total measure. Adding an interval
// costs O(log k) plus the size of the merged run; the total and the piece
// count are O(1) reads. Schedules use one Spans per machine so busy time is
// accounted incrementally instead of re-deriving interval sets per query.
//
// Batch schedulers only grow their spans — they never unassign jobs — but
// the rolling-horizon online engine additionally shrinks them at the edges:
// TruncateAfter removes coverage past a point when a job releases early, and
// RetireBefore drops fully-settled pieces behind the stream clock during
// window compaction. Both keep total equal to the measure of the remaining
// pieces; the online session accounts accrued (retired) busy time itself.
type Spans struct {
	pieces []Interval
	total  float64
}

// Reset empties the spans, retaining the piece slice for reuse.
func (sp *Spans) Reset() {
	sp.pieces = sp.pieces[:0]
	sp.total = 0
}

// Count returns the number of disjoint pieces.
func (sp *Spans) Count() int { return len(sp.pieces) }

// Total returns the measure of the union of everything added so far.
func (sp *Spans) Total() float64 { return sp.total }

// AppendTo appends the disjoint pieces in ascending order to dst and returns
// the extended slice.
func (sp *Spans) AppendTo(dst Set) Set { return append(dst, sp.pieces...) }

// run locates the run [i, j) of pieces that iv overlaps or touches; i == j
// means iv is disjoint from every piece and belongs at position i.
func (sp *Spans) run(iv Interval) (i, j int) {
	// First piece that could merge with iv: End ≥ iv.Start (touch counts).
	// The binary search is written out: BestFit calls Delta on most
	// machines it ranks, and sort.Search's closure costs a call per step.
	i, j = 0, len(sp.pieces)
	for i < j {
		h := int(uint(i+j) >> 1)
		if sp.pieces[h].End < iv.Start {
			i = h + 1
		} else {
			j = h
		}
	}
	for j = i; j < len(sp.pieces) && sp.pieces[j].Start <= iv.End; j++ {
	}
	return i, j
}

// Delta returns the measure Add(iv) would contribute, without modifying the
// spans.
func (sp *Spans) Delta(iv Interval) float64 {
	i, j := sp.run(iv)
	if i == j {
		return iv.Len()
	}
	lo, hi := iv.Start, iv.End
	if s := sp.pieces[i].Start; s < lo {
		lo = s
	}
	if e := sp.pieces[j-1].End; e > hi {
		hi = e
	}
	removed := 0.0
	for k := i; k < j; k++ {
		removed += sp.pieces[k].Len()
	}
	return (hi - lo) - removed
}

// Graft appends already-merged pieces to the spans without touching the
// running total. The pieces must be disjoint, non-touching, ascending, and lie
// strictly after every piece already present — the shape produced by adopting
// another Spans' run from a later time range, which is exactly the
// decomposition layer's stitch merge (components are separated by gaps of
// positive length). Totals are accounted separately via AddMeasure so the
// caller can replay the originating run's floating-point accumulation order
// bit for bit instead of summing per-piece measures in graft order.
func (sp *Spans) Graft(pieces []Interval) {
	if len(pieces) == 0 {
		return
	}
	if n := len(sp.pieces); n > 0 && pieces[0].Start <= sp.pieces[n-1].End {
		panic("interval: Graft pieces must lie strictly after the existing spans")
	}
	sp.pieces = append(sp.pieces, pieces...)
}

// AddMeasure folds an externally computed measure contribution into the
// running total, the accounting half of Graft: the caller replays the
// originating run's per-placement span deltas in its placement order, so
// Total reproduces that run's accumulation bitwise.
func (sp *Spans) AddMeasure(d float64) { sp.total += d }

// TruncateAfter removes all coverage strictly after t and returns the measure
// removed (the decrease of Total). A piece straddling t is clipped to end at
// t; pieces beginning at or after t are dropped (a leftover point at t would
// carry no measure). The piece slice's capacity is retained. Used by Release:
// when the last job covering a machine's busy tail departs early, the tail
// beyond the remaining jobs' coverage is un-billed.
func (sp *Spans) TruncateAfter(t float64) float64 {
	n := len(sp.pieces)
	// First piece with End > t: everything before it is untouched.
	i := sort.Search(n, func(k int) bool { return sp.pieces[k].End > t })
	if i == n {
		return 0
	}
	removed := 0.0
	if p := &sp.pieces[i]; p.Start < t {
		removed += p.End - t
		p.End = t
		i++
	}
	for k := i; k < n; k++ {
		removed += sp.pieces[k].Len()
	}
	sp.pieces = sp.pieces[:i]
	sp.total -= removed
	return removed
}

// RetireBefore drops every piece ending strictly before t from the front of
// the spans and returns how many were retired. Remaining pieces shift down in
// the same backing array, so repeated retirement on a warm machine reuses
// capacity instead of allocating. Total decreases by the retired measure; the
// caller banks that measure in its own accrued-cost accumulator first (see
// the online session's compaction), keeping the invariant Total == measure of
// the pieces still held.
func (sp *Spans) RetireBefore(t float64) int {
	n := len(sp.pieces)
	i := 0
	for i < n && sp.pieces[i].End < t {
		sp.total -= sp.pieces[i].Len()
		i++
	}
	if i == 0 {
		return 0
	}
	copy(sp.pieces, sp.pieces[i:])
	sp.pieces = sp.pieces[:n-i]
	return i
}

// Add merges iv into the spans and returns the measure it contributed (the
// increase of Total).
func (sp *Spans) Add(iv Interval) float64 {
	i, j := sp.run(iv)
	if i == j {
		sp.pieces = append(sp.pieces, Interval{})
		copy(sp.pieces[i+1:], sp.pieces[i:])
		sp.pieces[i] = iv
		sp.total += iv.Len()
		return iv.Len()
	}
	if j == i+1 {
		// Merging into exactly one piece — the dominant case on a warm
		// machine — widens it in place with no tail movement. The delta
		// arithmetic mirrors the general path bit for bit so Delta and Add
		// always agree.
		p := &sp.pieces[i]
		lo, hi := iv.Start, iv.End
		if p.Start < lo {
			lo = p.Start
		}
		if p.End > hi {
			hi = p.End
		}
		delta := (hi - lo) - p.Len()
		p.Start, p.End = lo, hi
		sp.total += delta
		return delta
	}
	lo, hi := iv.Start, iv.End
	if s := sp.pieces[i].Start; s < lo {
		lo = s
	}
	if e := sp.pieces[j-1].End; e > hi {
		hi = e
	}
	removed := 0.0
	for k := i; k < j; k++ {
		removed += sp.pieces[k].Len()
	}
	sp.pieces[i] = Interval{Start: lo, End: hi}
	sp.pieces = append(sp.pieces[:i+1], sp.pieces[j:]...)
	delta := (hi - lo) - removed
	sp.total += delta
	return delta
}
