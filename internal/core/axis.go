package core

import (
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

// instanceAxis bundles the compressed time axis of an instance with the
// shard geometry every schedule of the instance shares: the number
// of buckets, and how many consecutive buckets one time shard spans. It is
// computed once per instance (an O(n log n) endpoint sort) and cached, so
// schedules — fresh or recycled — configure their index structures without
// re-deriving the axis.
type instanceAxis struct {
	ax interval.Axis
	// nb caches ax.NB(); 0 means a degenerate axis (no or point-only hull):
	// the bitmap is disabled and shards run in single-shard mode.
	nb int
	// shardShift maps bucket indices to shard indices (bucket >> shardShift),
	// chosen so that a job overlaps few shards (bounded duplication) while
	// shards stay short enough for cheap exact sweeps.
	shardShift uint
	// nshards is the per-machine shard directory size, >= 1.
	nshards int
	// jobLo/jobHi cache each job's bucket overlap range by job position, so
	// the per-job hot path reads two int32s instead of searching the axis.
	// Job reordering invalidates them; the sort methods drop the cache.
	jobLo, jobHi []int32
}

// shardRange maps a bucket overlap range to the shards it spans. The
// degenerate axis stores everything in the single shard 0.
func (ia *instanceAxis) shardRange(lo, hi int) (slo, shi int) {
	if ia.nb == 0 || lo > hi {
		return 0, 0
	}
	return lo >> ia.shardShift, hi >> ia.shardShift
}

// shardStart returns the left time boundary of shard k.
func (ia *instanceAxis) shardStart(k int) float64 {
	return ia.ax.Boundary(k << ia.shardShift)
}

// shardEnd returns the right time boundary of shard k.
func (ia *instanceAxis) shardEnd(k int) float64 {
	b := (k + 1) << ia.shardShift
	if b > ia.nb {
		b = ia.nb
	}
	return ia.ax.Boundary(b)
}

// TimeAxis returns the instance's cached compressed time axis (built on
// first use). The returned value shares its backing arrays with the cache
// and must be treated as read-only; a degenerate workload (no or point-only
// hull) yields an axis with NB() == 0. The time-sharding layer scans its
// boundaries to pick low-crossing cut points in O(n + buckets).
func (in *Instance) TimeAxis() interval.Axis { return in.timeAxis().ax }

// timeAxis returns the instance's cached axis, building it on first use.
// The boundaries depend only on the multiset of job endpoints, but the
// jobLo/jobHi caches are keyed by job position, so the reordering methods
// (SortJobsByLenDesc, SortJobsByStart) drop the cache for a rebuild;
// mutating job intervals after scheduling has begun is not supported.
// Concurrent first use is safe: racing builders compute identical axes and
// either may win.
func (in *Instance) timeAxis() *instanceAxis {
	if p := (*instanceAxis)(atomic.LoadPointer(&in.axis)); p != nil {
		return p
	}
	ia := buildInstanceAxis(in)
	atomic.StorePointer(&in.axis, unsafe.Pointer(ia))
	return ia
}

func buildInstanceAxis(in *Instance) *instanceAxis {
	events := make([]float64, 0, 2*len(in.Jobs))
	for _, j := range in.Jobs {
		events = append(events, j.Iv.Start, j.Iv.End)
	}
	ia := &instanceAxis{ax: interval.NewAxis(events, maxTimeBuckets), nshards: 1}
	ia.nb = ia.ax.NB()
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
	// of the job count in memory.
	ia.jobLo = make([]int32, len(in.Jobs))
	ia.jobHi = make([]int32, len(in.Jobs))
	for i, j := range in.Jobs {
		lo, hi := ia.ax.OverlapRange(j.Iv)
		ia.jobLo[i], ia.jobHi[i] = int32(lo), int32(hi)
	}
	for (ia.nb-1)>>shift > 0 {
		extra := 0
		for i := range ia.jobLo {
			if ia.jobLo[i] <= ia.jobHi[i] {
				extra += int(ia.jobHi[i]>>shift) - int(ia.jobLo[i]>>shift)
			}
		}
		if extra <= len(in.Jobs) {
			break
		}
		shift++
	}
	ia.shardShift = shift
	ia.nshards = (ia.nb-1)>>shift + 1
	return ia
}
