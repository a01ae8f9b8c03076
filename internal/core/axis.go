package core

import (
	"math/bits"
	"sync/atomic"
	"unsafe"

	"busytime/internal/interval"
)

// Geometry caps of the per-instance index structures. The bucket cap bounds
// bitmap memory (see machindex); the shard caps bound the
// per-machine shard directories and the duplication of jobs across shards.
const (
	// maxTimeBuckets caps the compressed time axis; workloads with more
	// distinct endpoints are decimated with a uniform stride.
	maxTimeBuckets = 1 << 16
	// shardJobTarget is the desired average number of jobs per time shard,
	// steering the shard count derived from the instance size.
	shardJobTarget = 160
	maxShardsPower = 12 // <= 4096 shards per machine
)

// span is a closed interval in rank space: the ranks of its endpoints among
// the instance's sorted distinct job endpoints. Ranks preserve the order and
// the equality of the times they stand for, so the capacity oracle decides
// on spans exactly what it would decide on the float intervals.
type span struct{ start, end int32 }

// overlaps reports whether the closed spans share a point.
func (a span) overlaps(b span) bool { return a.start <= b.end && b.start <= a.end }

// contains reports whether rank r lies in the closed span.
func (a span) contains(r int32) bool { return a.start <= r && r <= a.end }

// instanceAxis bundles the compressed time axis of an instance with the
// shard geometry every schedule of the instance shares: the number
// of buckets, and how many consecutive buckets one time shard spans. It is
// computed once per instance (one O(n) radix sort of the endpoints) and
// cached, so schedules — fresh or recycled — configure their index
// structures without re-deriving the axis.
type instanceAxis struct {
	ax interval.Axis
	// nb caches ax.NB(); 0 means a degenerate axis (no or point-only hull):
	// the bitmap is disabled and shards run in single-shard mode.
	nb int
	// stride and last place the boundaries in rank space: boundary b < nb
	// is the endpoint of rank b·stride, boundary nb the endpoint of rank
	// last, the largest.
	stride, last int
	// shardShift maps bucket indices to shard indices (bucket >> shardShift),
	// chosen so that a job overlaps few shards (bounded duplication) while
	// shards stay short enough for cheap exact sweeps.
	shardShift uint
	// nshards is the per-machine shard directory size, >= 1.
	nshards int
	// ranks holds every job's span by job position, start and end adjacent
	// (see jobSpan). Job reordering invalidates it; the sort methods drop
	// the cache.
	ranks []int32
}

// jobSpan returns job j's span.
func (ia *instanceAxis) jobSpan(j int) span { return span{ia.ranks[2*j], ia.ranks[2*j+1]} }

// buckets returns the inclusive range of axis buckets a span touches —
// Axis.OverlapRange in rank space: bucket b touches [a, e] when its
// boundary ranks b·stride and (b+1)·stride bracket a point of it, so
// lo = ⌈a/stride⌉−1 = ⌊(a−1)/stride⌋ and hi = ⌊e/stride⌋, clamped to the
// axis. A degenerate axis yields the empty range. Ranks are non-negative,
// so the divisions run on 32 bits.
func (ia *instanceAxis) buckets(w span) (lo, hi int) {
	if ia.nb == 0 {
		return 0, -1
	}
	s := uint32(ia.stride)
	return int(uint32(max(w.start-1, 0)) / s), min(ia.nb-1, int(uint32(w.end)/s))
}

// within returns the inclusive range of axis buckets lying wholly inside a
// span (lo > hi: none), the buckets a property holding throughout the span
// may be recorded on: lo = ⌈a/stride⌉, and hi = ⌊e/stride⌋−1 or, when e is
// the last rank, the last bucket.
func (ia *instanceAxis) within(w span) (lo, hi int) {
	s := uint32(ia.stride)
	lo = int((uint32(w.start) + s - 1) / s)
	if int(w.end) >= ia.last {
		return lo, ia.nb - 1
	}
	return lo, int(uint32(w.end)/s) - 1
}

// shardRange maps a bucket overlap range to the shards it spans. The
// degenerate axis stores everything in the single shard 0.
func (ia *instanceAxis) shardRange(lo, hi int) (slo, shi int) {
	if ia.nb == 0 || lo > hi {
		return 0, 0
	}
	return lo >> ia.shardShift, hi >> ia.shardShift
}

// boundaryRank returns the rank of axis boundary b, 0 <= b <= nb.
func (ia *instanceAxis) boundaryRank(b int) int32 {
	if b >= ia.nb {
		return int32(ia.last)
	}
	return int32(b * ia.stride)
}

// shardStart returns the rank of shard k's left boundary.
func (ia *instanceAxis) shardStart(k int) int32 { return ia.boundaryRank(k << ia.shardShift) }

// shardEnd returns the rank of shard k's right boundary.
func (ia *instanceAxis) shardEnd(k int) int32 { return ia.boundaryRank((k + 1) << ia.shardShift) }

// TimeAxis returns the instance's cached compressed time axis (built on
// first use). The returned value shares its backing arrays with the cache
// and must be treated as read-only; a degenerate workload (no or point-only
// hull) yields an axis with NB() == 0. The time-sharding layer scans its
// boundaries to pick low-crossing cut points in O(n + buckets).
func (in *Instance) TimeAxis() interval.Axis { return in.timeAxis().ax }

// timeAxis returns the instance's cached axis, building it on first use.
// The boundaries depend only on the multiset of job endpoints, but the job
// spans are keyed by job position, so the reordering methods
// (SortJobsByLenDesc, SortJobsByStart) drop the cache for a rebuild;
// mutating job intervals after scheduling has begun is not supported.
// Concurrent first use is safe: racing builders compute identical axes and
// either may win.
func (in *Instance) timeAxis() *instanceAxis {
	if p := (*instanceAxis)(atomic.LoadPointer(&in.axis)); p != nil {
		return p
	}
	ia := buildInstanceAxis(in, maxTimeBuckets)
	atomic.StorePointer(&in.axis, unsafe.Pointer(ia))
	return ia
}

// buildInstanceAxis builds the axis of in's job endpoints, decimated to at
// most maxBuckets buckets, with every job's span and the shard geometry.
func buildInstanceAxis(in *Instance, maxBuckets int) *instanceAxis {
	events := make([]float64, 0, 2*len(in.Jobs))
	for _, j := range in.Jobs {
		events = append(events, j.Iv.Start, j.Iv.End)
	}
	// The endpoints are listed job by job, so their ranks are the spans.
	ia := &instanceAxis{ranks: make([]int32, len(events)), nshards: 1}
	ia.ax = interval.NewAxis(events, maxBuckets, ia.ranks)
	ia.nb, ia.stride, ia.last = ia.ax.NB(), ia.ax.Stride(), ia.ax.Distinct()-1
	if ia.nb == 0 {
		return ia
	}
	// Aim for shardJobTarget jobs per shard if the instance spread evenly.
	target := 1
	for target < len(in.Jobs)/shardJobTarget && target < 1<<maxShardsPower {
		target <<= 1
	}
	shift := uint(0)
	for ia.nb>>shift > target {
		shift++
	}
	// Widen shards until jobs average at most two shard copies each, so the
	// static (no-doubling) shard directories stay within a constant factor
	// of the job count in memory. One pass over the jobs counts the extra
	// copies at every shift up to a single shard (top).
	top := uint(bits.Len(uint(ia.nb - 1)))
	var extra [64]int
	for j := range in.Jobs {
		lo, hi := ia.buckets(ia.jobSpan(j))
		for s := shift; s < top; s++ {
			extra[s] += hi>>s - lo>>s
		}
	}
	for shift < top && extra[shift] > len(in.Jobs) {
		shift++
	}
	ia.shardShift = shift
	ia.nshards = (ia.nb-1)>>shift + 1
	return ia
}
