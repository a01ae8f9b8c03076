package core

import (
	"cmp"
	"slices"

	"busytime/internal/interval"
)

// The capacity oracle of a machine stores the machine's jobs bucketed by
// time over the instance's compressed axis: shard k spans
// the buckets [k<<shardShift, (k+1)<<shardShift) of the instance axis, so a
// capacity probe — maximum demand-weighted closed depth within a window —
// only sweeps the shards its window overlaps, each a short list.
//
// Storage is a flat chunked arena shared by every machine of the schedule
// (shardPool): a shard is a chain of fixed-size chunks addressed by index,
// so appending a job never moves other jobs and recycling the whole pool is
// an O(1) truncation. Shard count and width are fixed up front from the
// instance axis, which removes the PR 2 doubling growth (grow() re-copied
// every stored job each time a machine's shards doubled — the dominant
// allocation source at 100k jobs) from the insert path entirely.
//
// Shard membership is computed in bucket space (integer shifts on the
// precomputed axis ranges), and axis buckets touching an interval at a
// single point are included (interval.Axis.OverlapRange): a job ending
// exactly on a shard boundary is stored on both sides, so every shard holds
// every job overlapping any point of its closed time range and per-shard
// sweeps are exact under closed semantics, with no float widening.

// shardChunkLen is the number of items per chunk; chunks are ~400 B, small
// enough that sparsely filled shards waste little and large enough that a
// sweep mostly walks contiguous memory.
const shardChunkLen = 16

// smallSweep is the event count up to which sweepShard evaluates depths
// quadratically instead of sorting; beyond it the sort-based sweep wins.
const smallSweep = 32

type shardItem struct {
	iv     interval.Interval
	demand int32
}

type shardEvent struct {
	t float64
	d int32
}

type shardChunk struct {
	items [shardChunkLen]shardItem
	n     int32
	prev  int32 // earlier chunk of the same shard's chain; 0 terminates
}

// shardPool is the schedule-wide arena behind every machine's loadShards,
// plus the sweep scratch shared by their probes. It lives in the Scratch (or
// in the schedule, for fresh schedules) and is recycled across instances:
// reset is O(1) and a warm pool serves chunks without allocating.
type shardPool struct {
	// chunks[0] is a sentinel that is permanently full, so the append path
	// needs no empty-chain branch; heads of value 0 mean "empty shard".
	chunks []shardChunk
	// sweep scratch reused across every probe of the schedule
	sbuf, ebuf []shardEvent
	// allocs counts backing-array growth, feeding ScratchStats.
	allocs int
}

// reset drops every chunk in O(1), retaining the arena.
func (p *shardPool) reset() {
	if len(p.chunks) > 0 {
		p.chunks = p.chunks[:1]
	}
}

// take hands out an empty chunk chained after prev, recycling retained
// capacity before growing the arena.
func (p *shardPool) take(prev int32) int32 {
	if len(p.chunks) == 0 {
		if cap(p.chunks) == 0 {
			p.allocs++
		}
		p.chunks = append(p.chunks, shardChunk{n: shardChunkLen}) // sentinel
	}
	if len(p.chunks) < cap(p.chunks) {
		p.chunks = p.chunks[:len(p.chunks)+1]
		c := &p.chunks[len(p.chunks)-1]
		c.n, c.prev = 0, prev
	} else {
		p.allocs++
		p.chunks = append(p.chunks, shardChunk{prev: prev})
	}
	return int32(len(p.chunks) - 1)
}

// loadShards is one machine's shard directory: per shard, the head of its
// chunk chain in the schedule's shardPool.
type loadShards struct {
	heads []int32
}

// init sizes the shard directory from the instance axis — shard count and
// width are fixed per instance, so the insert path never redistributes. It
// reports whether the directory's backing array had to grow.
func (ls *loadShards) init(ia *instanceAxis) (grew bool) {
	n := ia.nshards
	if cap(ls.heads) < n {
		ls.heads = make([]int32, n)
		return true
	}
	ls.heads = ls.heads[:n]
	clear(ls.heads)
	return false
}

// add stores one copy of the job in every shard of [slo, shi] (the job's
// axis bucket range shifted to shard space).
func (ls *loadShards) add(p *shardPool, iv interval.Interval, demand int, slo, shi int) {
	it := shardItem{iv: iv, demand: int32(demand)}
	for k := slo; k <= shi; k++ {
		h := ls.heads[k]
		if len(p.chunks) == 0 || p.chunks[h].n == shardChunkLen {
			h = p.take(h)
			ls.heads[k] = h
		}
		c := &p.chunks[h]
		c.items[c.n] = it
		c.n++
	}
}

// maxDepthRun returns the maximum demand-weighted closed depth within w, a
// witness point attaining it, and (when the depth reaches thresh) a
// saturated run around the witness: the maximal sub-interval of the
// witness's clipped shard window on which the depth stays ≥ thresh.
// [slo, shi] is w's shard range; the window is processed shard by shard on
// clipped sub-windows. Each shard holds every job overlapping its closed
// tile, so per-shard depths are exact and the overall maximum is their
// maximum.
func (ls *loadShards) maxDepthRun(p *shardPool, ia *instanceAxis, w interval.Interval, thresh, slo, shi int) (depth int, at float64, run interval.Interval, ok bool) {
	if thresh < 1 {
		thresh = 1
	}
	for k := slo; k <= shi; k++ {
		sub := w
		if k > slo {
			if t := ia.shardStart(k); t > sub.Start {
				sub.Start = t
			}
		}
		if k < shi {
			if t := ia.shardEnd(k); t < sub.End {
				sub.End = t
			}
		}
		if sub.Start > sub.End {
			continue
		}
		d, a, r, o := ls.sweepShard(p, k, sub, thresh)
		if d > depth {
			depth, at = d, a
			run, ok = r, o
		}
	}
	return depth, at, run, ok
}

// sweepShard computes the exact depth profile of one shard's items over the
// sub-window sub by walking the shard's chunk chain.
func (ls *loadShards) sweepShard(p *shardPool, k int, sub interval.Interval, thresh int) (depth int, at float64, run interval.Interval, ok bool) {
	starts, ends := p.sbuf[:0], p.ebuf[:0]
	for h := ls.heads[k]; h != 0; h = p.chunks[h].prev {
		c := &p.chunks[h]
		for i := int32(0); i < c.n; i++ {
			it := &c.items[i]
			if !it.iv.Overlaps(sub) {
				continue
			}
			s, e := it.iv.Start, it.iv.End
			if s < sub.Start {
				s = sub.Start
			}
			if e > sub.End {
				e = sub.End
			}
			starts = append(starts, shardEvent{t: s, d: it.demand})
			ends = append(ends, shardEvent{t: e, d: it.demand})
		}
	}
	p.sbuf, p.ebuf = starts, ends
	if len(starts) == 0 {
		return 0, 0, interval.Interval{}, false
	}
	// Small sweeps — the common case with shards sized to a handful of jobs
	// — skip the sorts: the maximum closed depth is attained at some clipped
	// start point, so a direct quadratic evaluation over the parallel
	// start/end arrays is exact and cheaper than sorting them. The
	// first saturated point (depth >= thresh) ends the evaluation and falls
	// through to the full sweep, which recomputes the maximum from scratch and
	// additionally extracts the saturated run.
	if len(starts) <= smallSweep {
		saturated := false
		for i := range starts {
			pt := starts[i].t
			d := 0
			for k := range starts {
				if starts[k].t <= pt && pt <= ends[k].t {
					d += int(starts[k].d)
				}
			}
			if d >= thresh {
				saturated = true
				break
			}
			if d > depth || (d == depth && pt < at) {
				depth, at = d, pt
			}
		}
		if !saturated {
			return depth, at, interval.Interval{}, false
		}
		depth, at = 0, 0
	}
	sortEvents(starts)
	sortEvents(ends)
	// Two-pointer sweep, starts first at equal coordinates for closed
	// semantics, tracking the run of depth ≥ thresh that holds the maximum.
	cur, best := 0, 0
	inRun, runStart, bestRunStart := false, 0.0, 0.0
	i, j := 0, 0
	for i < len(starts) {
		if starts[i].t <= ends[j].t {
			cur += int(starts[i].d)
			if cur >= thresh && !inRun {
				inRun, runStart = true, starts[i].t
			}
			if cur > best {
				best = cur
				at = starts[i].t
				bestRunStart = runStart
			}
			i++
		} else {
			if inRun && cur-int(ends[j].d) < thresh {
				inRun = false
				if best >= thresh && bestRunStart == runStart {
					run, ok = interval.Interval{Start: runStart, End: ends[j].t}, true
				}
			}
			cur -= int(ends[j].d)
			j++
		}
	}
	for inRun && j < len(ends) {
		if cur-int(ends[j].d) < thresh {
			inRun = false
			if best >= thresh && bestRunStart == runStart {
				run, ok = interval.Interval{Start: runStart, End: ends[j].t}, true
			}
		}
		cur -= int(ends[j].d)
		j++
	}
	return best, at, run, ok
}

// sortEvents orders sweep events by coordinate. Up to smallSweep events —
// every saturated small sweep — an inline insertion sort beats SortFunc's
// comparator calls; the sweep's result does not depend on how equal
// coordinates are ordered.
func sortEvents(ev []shardEvent) {
	if len(ev) > smallSweep {
		slices.SortFunc(ev, func(a, b shardEvent) int { return cmp.Compare(a.t, b.t) })
		return
	}
	for i := 1; i < len(ev); i++ {
		e, j := ev[i], i
		for ; j > 0 && ev[j-1].t > e.t; j-- {
			ev[j] = ev[j-1]
		}
		ev[j] = e
	}
}
