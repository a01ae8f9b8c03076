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

// Axis is an instance's compressed time axis in rank space: every job
// endpoint is replaced by its rank among the instance's sorted distinct
// endpoints, and the axis buckets are ranges of ranks. The capacity rule
// compares endpoints only by order and equality, which ranks keep, so the
// oracle, the saturation bitmap and time sharding all decide on ranks
// exactly what they would decide on the times.
//
// Boundary b < NB() is the endpoint of rank b·stride, and boundary NB() the
// largest endpoint; bucket b is the closed rank range between boundaries b
// and b+1, so consecutive buckets share their boundary, as closed intervals
// share an endpoint. The stride is 1 unless the instance has more than
// maxTimeBuckets+1 distinct endpoints, when it is the smallest that keeps
// the bucket count within the cap.
//
// The axis also carries the shard geometry every schedule of the instance
// shares: how many consecutive buckets one time shard spans. It is computed
// once per instance (one O(n) radix sort of the endpoints) and cached, so
// schedules — fresh or recycled — configure their index structures without
// re-deriving it.
type Axis struct {
	// nb is the bucket count; 0 means a degenerate axis (no or point-only
	// hull): the bitmap is disabled and shards run in single-shard mode.
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
	// (see jobSpan).
	ranks []int32
}

// jobSpan returns job j's span.
func (ia *Axis) jobSpan(j int) span { return span{ia.ranks[2*j], ia.ranks[2*j+1]} }

// buckets returns the inclusive range of axis buckets a span touches (lo >
// hi: none): bucket b touches [a, e] when its boundary ranks b·stride and
// (b+1)·stride bracket a point of it, so lo = ⌈a/stride⌉−1 = ⌊(a−1)/stride⌋
// and hi = ⌊e/stride⌋, clamped to the axis. A degenerate axis yields the
// empty range. Ranks are non-negative, so the divisions run on 32 bits.
func (ia *Axis) buckets(w span) (lo, hi int) {
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
func (ia *Axis) within(w span) (lo, hi int) {
	s := uint32(ia.stride)
	lo = int((uint32(w.start) + s - 1) / s)
	if int(w.end) >= ia.last {
		return lo, ia.nb - 1
	}
	return lo, int(uint32(w.end)/s) - 1
}

// shardRange maps a bucket overlap range to the shards it spans. The
// degenerate axis stores everything in the single shard 0.
func (ia *Axis) shardRange(lo, hi int) (slo, shi int) {
	if ia.nb == 0 || lo > hi {
		return 0, 0
	}
	return lo >> ia.shardShift, hi >> ia.shardShift
}

// shardStart returns the rank of shard k's left boundary.
func (ia *Axis) shardStart(k int) int32 { return ia.BoundaryRank(k << ia.shardShift) }

// shardEnd returns the rank of shard k's right boundary.
func (ia *Axis) shardEnd(k int) int32 { return ia.BoundaryRank((k + 1) << ia.shardShift) }

// NB returns the number of buckets, 0 for a degenerate axis.
func (ia *Axis) NB() int { return ia.nb }

// BoundaryRank returns the rank of boundary b, 0 <= b <= NB().
func (ia *Axis) BoundaryRank(b int) int32 {
	if b >= ia.nb {
		return int32(ia.last)
	}
	return int32(b * ia.stride)
}

// JobRanks returns the ranks of job j's start and end.
func (ia *Axis) JobRanks(j int) (start, end int32) { return ia.ranks[2*j], ia.ranks[2*j+1] }

// CrossedBy returns the inclusive range of boundaries lying strictly inside
// job j (lo > hi: none), the cuts that would split its window. Boundary b <
// NB(), of rank b·stride, lies inside the job's ranks (s, e) exactly when
// ⌊s/stride⌋ < b ≤ ⌊(e−1)/stride⌋; boundary NB() is the largest endpoint,
// inside no job. lo is at least 1, and at e = 0 (every job of a degenerate
// axis) the division truncates −1 to 0 or −1, so the range is empty.
func (ia *Axis) CrossedBy(j int) (lo, hi int) {
	s, e := ia.JobRanks(j)
	return int(s)/ia.stride + 1, int(e-1) / ia.stride
}

// TimeAxis returns the instance's cached time axis, building it on first
// use. The axis is shared with every schedule of the instance and
// read-only; a degenerate workload (no or point-only hull) yields NB() == 0.
// Time sharding picks its cuts among the boundaries. Like every derived
// cache of the instance it is never dropped, so the jobs must not change
// after it is built. Concurrent first use is safe: racing builders compute
// identical axes and either may win.
func (in *Instance) TimeAxis() *Axis {
	if p := (*Axis)(atomic.LoadPointer(&in.axis)); p != nil {
		return p
	}
	ia := buildInstanceAxis(in, maxTimeBuckets)
	atomic.StorePointer(&in.axis, unsafe.Pointer(ia))
	return ia
}

// buildInstanceAxis builds the axis of in's job endpoints, decimated to at
// most maxBuckets (>= 1) buckets, with every job's span and the shard
// geometry.
func buildInstanceAxis(in *Instance, maxBuckets int) *Axis {
	events := make([]float64, 0, 2*len(in.Jobs))
	for _, j := range in.Jobs {
		events = append(events, j.Iv.Start, j.Iv.End)
	}
	// The endpoints are listed job by job, so their ranks are the spans.
	ia := &Axis{ranks: make([]int32, len(events)), stride: 1, nshards: 1}
	d := interval.Ranks(events, ia.ranks)
	ia.last = d - 1
	if d < 2 {
		return ia
	}
	if segs := d - 1; segs > maxBuckets {
		ia.stride = (segs + maxBuckets - 1) / maxBuckets
	}
	ia.nb = (d - 2 + ia.stride) / ia.stride
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
