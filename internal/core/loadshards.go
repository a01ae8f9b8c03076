package core

import (
	"cmp"
	"slices"
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
// instance axis, so the insert path never redistributes.
//
// Items, windows, shard tiles, witnesses and maximal runs are spans —
// endpoint ranks, not times (see span). Every coordinate the sweep compares
// is a job endpoint or an axis boundary, which is a job endpoint too, so
// rank comparisons give exactly the float comparisons' answers on records
// half their size. Shard membership is computed in bucket space, and axis
// buckets touching a job at a single point are included (Axis.buckets):
// a job ending exactly on a shard boundary is stored on both sides, so
// every shard holds every job overlapping any point of its closed tile and
// per-shard sweeps are exact under closed semantics.

// shardChunkLen is the number of items per chunk; chunks are 204 B, small
// enough that sparsely filled shards waste little and large enough that a
// sweep mostly walks contiguous memory.
const shardChunkLen = 16

// smallSweep is the insertion-sort cutoff of sortEvents: sweeps of up to
// this many events sort inline, longer ones through slices.SortFunc.
const smallSweep = 32

type shardItem struct {
	w      span
	demand int32
}

type shardEvent struct {
	t, d int32
}

type shardChunk struct {
	items [shardChunkLen]shardItem
	n     int32
	prev  int32 // earlier chunk of the same shard's chain; 0 terminates
	// reach is the largest end rank in this chunk and every older chunk of
	// its chain, so a sweep stops at the first chunk whose reach lies
	// before its window: nothing behind it can overlap the window.
	reach int32
}

// shardPool is the schedule-wide arena behind every machine's loadShards,
// plus the sweep scratch shared by their probes. It lives in the Scratch and
// is recycled across instances: reset is O(1) and a warm pool serves chunks
// without allocating.
type shardPool struct {
	// chunks[0] is a sentinel that is permanently full, so the append path
	// needs no empty-chain branch; heads of value 0 mean "empty shard".
	chunks []shardChunk
	// sweep scratch reused across every probe of the schedule
	sbuf, ebuf []shardEvent
	// runs holds the last query's maximal runs at its maximum depth (see
	// maxDepthRun). kept is a second run buffer: BestFit swaps a candidate's
	// runs into it on accepting the candidate, out of reach of the queries
	// that follow.
	runs, kept []span
	// allocs counts backing-array growth, feeding ScratchStats.
	allocs int
	// sweeps and walked count shard sweeps and the items of the chunks they
	// visit since the last reset, feeding Schedule.Work.
	sweeps, walked int
}

// reset drops every chunk in O(1), retaining the arena, and zeroes the walk
// counts.
func (p *shardPool) reset() {
	if len(p.chunks) > 0 {
		p.chunks = p.chunks[:1]
	}
	p.sweeps, p.walked = 0, 0
}

// take hands out an empty chunk chained after prev, with prev's reach,
// recycling retained capacity before growing the arena.
func (p *shardPool) take(prev int32) int32 {
	if len(p.chunks) == 0 {
		if cap(p.chunks) == 0 {
			p.allocs++
		}
		p.chunks = append(p.chunks, shardChunk{n: shardChunkLen, reach: -1}) // sentinel
	}
	reach := p.chunks[prev].reach
	if len(p.chunks) < cap(p.chunks) {
		p.chunks = p.chunks[:len(p.chunks)+1]
		c := &p.chunks[len(p.chunks)-1]
		c.n, c.prev, c.reach = 0, prev, reach
	} else {
		p.allocs++
		p.chunks = append(p.chunks, shardChunk{prev: prev, reach: reach})
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
func (ls *loadShards) init(ia *Axis) (grew bool) {
	n := ia.nshards
	if cap(ls.heads) < n {
		ls.heads = make([]int32, n)
		return true
	}
	ls.heads = ls.heads[:n]
	clear(ls.heads)
	return false
}

// add stores one copy of the job with span w in every shard of [slo, shi]
// (the job's axis bucket range shifted to shard space).
func (ls *loadShards) add(p *shardPool, w span, demand int, slo, shi int) {
	it := shardItem{w: w, demand: int32(demand)}
	for k := slo; k <= shi; k++ {
		h := ls.heads[k]
		if len(p.chunks) == 0 || p.chunks[h].n == shardChunkLen {
			h = p.take(h)
			ls.heads[k] = h
		}
		c := &p.chunks[h]
		c.items[c.n] = it
		c.n++
		c.reach = max(c.reach, w.end)
	}
}

// maxDepthRun returns the maximum demand-weighted closed depth within w and
// its witness, the lowest rank attaining it, and leaves in p.runs every
// maximal run at that maximum, in ascending order: per shard of [slo, shi]
// (w's shard range) whose clipped sub-window reaches the maximum, the
// maximal sub-spans of the sub-window on which the depth equals it (the
// whole sub-window at depth 0). Each shard holds every job overlapping its
// closed tile, so per-shard depths are exact and the overall maximum is
// their maximum; the first reported run starts at the witness.
func (ls *loadShards) maxDepthRun(p *shardPool, ia *Axis, w span, slo, shi int) (depth int, at int32) {
	p.runs = p.runs[:0]
	depth = -1
	for k := slo; k <= shi; k++ {
		sub := w
		if k > slo {
			sub.start = max(sub.start, ia.shardStart(k))
		}
		if k < shi {
			sub.end = min(sub.end, ia.shardEnd(k))
		}
		if sub.start > sub.end {
			continue
		}
		base := len(p.runs)
		switch d := ls.sweepShard(p, k, sub); {
		case d > depth:
			depth = d
			p.runs = p.runs[:copy(p.runs, p.runs[base:])]
		case d < depth:
			p.runs = p.runs[:base]
		}
	}
	return depth, p.runs[0].start
}

// sweepShard computes the exact depth profile of one shard's items over the
// sub-window sub by walking the shard's chunk chain from its newest chunk
// until the first whose reach lies before sub, and returns the maximum
// depth from one sorted two-pointer pass. The same pass appends to p.runs
// the maximal runs of sub at that depth in ascending order, dropping the
// runs it appended so far whenever a deeper point restarts the list; a
// sub-window no item overlaps is one run at depth 0.
func (ls *loadShards) sweepShard(p *shardPool, k int, sub span) int {
	starts, ends := p.sbuf[:0], p.ebuf[:0]
	p.sweeps++
	for h := ls.heads[k]; h != 0; h = p.chunks[h].prev {
		c := &p.chunks[h]
		if c.reach < sub.start {
			break
		}
		p.walked += int(c.n)
		for i := int32(0); i < c.n; i++ {
			it := &c.items[i]
			if !it.w.overlaps(sub) {
				continue
			}
			starts = append(starts, shardEvent{t: max(it.w.start, sub.start), d: it.demand})
			ends = append(ends, shardEvent{t: min(it.w.end, sub.end), d: it.demand})
		}
	}
	p.sbuf, p.ebuf = starts, ends
	if len(starts) == 0 {
		p.runs = append(p.runs, sub)
		return 0
	}
	sortEvents(starts)
	sortEvents(ends)
	// Two-pointer sweep, starts first at equal coordinates for closed
	// semantics. Demands are positive, so a run at the running maximum best
	// is open exactly while the depth equals best: it opens at the start
	// that brings the depth to best and closes at the next end.
	runs, base := p.runs, len(p.runs)
	cur, best, runStart := 0, 0, int32(0)
	i, j := 0, 0
	for i < len(starts) {
		if starts[i].t <= ends[j].t {
			cur += int(starts[i].d)
			if cur >= best {
				if cur > best {
					best, runs = cur, runs[:base]
				}
				runStart = starts[i].t
			}
			i++
		} else {
			if cur == best {
				runs = append(runs, span{runStart, ends[j].t})
			}
			cur -= int(ends[j].d)
			j++
		}
	}
	if cur == best {
		runs = append(runs, span{runStart, ends[j].t})
	}
	p.runs = runs
	return best
}

// sortEvents orders sweep events by coordinate. Up to smallSweep events —
// most sweeps, with shards sized to a handful of jobs — an inline insertion
// sort beats SortFunc's comparator calls; the sweep's result does not depend
// on how equal coordinates are ordered.
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
