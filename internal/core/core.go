// Package core defines the busy-time scheduling problem of Flammini et al.:
// jobs are fixed closed intervals, a machine may process at most g jobs
// simultaneously, and the objective is to minimize the total busy time (the
// sum over machines of the measure of the time each machine has at least one
// active job).
//
// The package provides the instance and schedule models shared by every
// algorithm, schedule validation, cost accounting, the paper's lower bounds
// (Observation 1.1) plus the stronger fractional bound ∫⌈N_t/g⌉dt, JSON
// serialization, and decomposition into connected components.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"unsafe"

	"busytime/internal/interval"
)

// Job is a unit of work that must be processed during exactly its interval.
// Demand is the machine capacity the job consumes while active; the paper's
// base problem has Demand == 1, and the demand extension ([15]) allows
// 1 ≤ Demand ≤ g.
type Job struct {
	ID     int
	Iv     interval.Interval
	Demand int
}

// Len returns the job's processing length.
func (j Job) Len() float64 { return j.Iv.Len() }

func (j Job) String() string {
	if j.Demand > 1 {
		return fmt.Sprintf("J%d%v×%d", j.ID, j.Iv, j.Demand)
	}
	return fmt.Sprintf("J%d%v", j.ID, j.Iv)
}

// Instance is a busy-time scheduling instance: a job set and the parallelism
// parameter G (max simultaneous jobs per machine, demand-weighted).
type Instance struct {
	Name string
	G    int
	Jobs []Job

	// Derived data, each built once on first use and read atomically: axis
	// caches TimeAxis (*Axis), lenOrder LengthOrder and startOrder
	// StartOrder (both *[]int32), bounds CachedBounds (*Bounds) and valid
	// a successful CachedValidate (*error). None is ever dropped, so an
	// instance's jobs must not change after the first of them is built.
	axis       unsafe.Pointer
	lenOrder   unsafe.Pointer
	startOrder unsafe.Pointer
	bounds     unsafe.Pointer
	valid      unsafe.Pointer
}

// NewInstance builds an instance with parallelism g from raw intervals,
// assigning sequential IDs starting at 0 and unit demands.
func NewInstance(g int, ivs ...interval.Interval) *Instance {
	jobs := make([]Job, len(ivs))
	for i, iv := range ivs {
		jobs[i] = Job{ID: i, Iv: iv, Demand: 1}
	}
	return &Instance{G: g, Jobs: jobs}
}

// Validate checks structural well-formedness: g ≥ 1, unique job IDs,
// demands in [1, g], and intervals interval.Check accepts (finite, not
// reversed).
func (in *Instance) Validate() error {
	if in.G < 1 {
		return fmt.Errorf("core: parallelism g = %d, want ≥ 1", in.G)
	}
	seen := make(map[int]bool, len(in.Jobs))
	for _, j := range in.Jobs {
		if seen[j.ID] {
			return fmt.Errorf("core: duplicate job ID %d", j.ID)
		}
		seen[j.ID] = true
		if j.Demand < 1 || j.Demand > in.G {
			return fmt.Errorf("core: job %d demand %d outside [1, %d]", j.ID, j.Demand, in.G)
		}
		if err := interval.Check(j.Iv.Start, j.Iv.End); err != nil {
			return fmt.Errorf("core: job %d: %w: [%v, %v]", j.ID, err, j.Iv.Start, j.Iv.End)
		}
	}
	return nil
}

// CachedValidate returns Validate, caching only a success verdict like the
// time axis (Validate's duplicate-ID check allocates, which would put a map
// allocation on every warm Solve). Failures are re-validated every call, so
// a caller that fixes a rejected instance (sets G, repairs a job) and
// retries is not served a stale error. Like every derived cache of the
// instance, a success is kept for good: the jobs must not change after it.
func (in *Instance) CachedValidate() error {
	if p := (*error)(atomic.LoadPointer(&in.valid)); p != nil {
		return *p
	}
	err := in.Validate()
	if err == nil {
		atomic.StorePointer(&in.valid, unsafe.Pointer(&err))
	}
	return err
}

// N returns the number of jobs.
func (in *Instance) N() int { return len(in.Jobs) }

// Set returns the jobs' intervals as an interval.Set in job order.
func (in *Instance) Set() interval.Set {
	s := make(interval.Set, len(in.Jobs))
	for i, j := range in.Jobs {
		s[i] = j.Iv
	}
	return s
}

// TotalLen returns len(J) = Σ len(J_j), unweighted by demand.
func (in *Instance) TotalLen() float64 { return in.Set().TotalLen() }

// WeightedLen returns Σ Demand_j · len(J_j), the demand-weighted total work.
func (in *Instance) WeightedLen() float64 {
	var sum float64
	for _, j := range in.Jobs {
		sum += float64(j.Demand) * j.Len()
	}
	return sum
}

// Span returns span(J), the measure of the union of all job intervals.
func (in *Instance) Span() float64 { return in.Set().Span() }

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	jobs := make([]Job, len(in.Jobs))
	copy(jobs, in.Jobs)
	return &Instance{Name: in.Name, G: in.G, Jobs: jobs}
}

// IsProper reports whether no job interval properly contains another.
func (in *Instance) IsProper() bool { return in.Set().IsProper() }

// IsClique reports whether all job intervals pairwise intersect.
func (in *Instance) IsClique() bool { return in.Set().IsClique() }

// LengthOrder returns the job indices in the paper's FirstFit order — by
// non-increasing length, ties broken by (start, end, ID) for determinism —
// computed once per instance and cached like the time axis. The returned
// slice is shared: callers must not modify it.
func (in *Instance) LengthOrder() []int32 {
	if p := (*[]int32)(atomic.LoadPointer(&in.lenOrder)); p != nil {
		return *p
	}
	type key struct {
		len, start float64
		id         int
		idx        int32
	}
	// Sorting runs over a contiguous key slice so the comparator never
	// chases the jobs slice — on 100k-job instances the sort prefix is
	// measurable. Equal length and start imply equal end, so (len, start,
	// ID) is the full (len, start, end, ID) order of the paper's step 1.
	keys := make([]key, in.N())
	for i, j := range in.Jobs {
		keys[i] = key{len: j.Len(), start: j.Iv.Start, id: j.ID, idx: int32(i)}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.len != b.len {
			if a.len > b.len {
				return -1
			}
			return 1
		}
		if a.start != b.start {
			if a.start < b.start {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.id, b.id)
	})
	order := make([]int32, len(keys))
	for i, k := range keys {
		order[i] = k.idx
	}
	atomic.StorePointer(&in.lenOrder, unsafe.Pointer(&order))
	return order
}

// StartOrder returns the job indices in arrival order — by (start, end, ID)
// — computed once per instance and cached like LengthOrder. This is the
// processing order of the online replays and the start-time baselines, so
// steady-state batch traffic neither sorts nor allocates per run. The
// returned slice is shared: callers must not modify it.
func (in *Instance) StartOrder() []int32 {
	if p := (*[]int32)(atomic.LoadPointer(&in.startOrder)); p != nil {
		return *p
	}
	order := make([]int32, in.N())
	for i := range order {
		order[i] = int32(i)
	}
	jobs := in.Jobs
	slices.SortFunc(order, func(a, b int32) int {
		return compareJobPosition(jobs[a], jobs[b])
	})
	atomic.StorePointer(&in.startOrder, unsafe.Pointer(&order))
	return order
}

// compareJobPosition orders jobs by (start, end, ID), a total order used as
// the deterministic tie-break of every job ordering.
func compareJobPosition(ja, jb Job) int {
	if ja.Iv.Start != jb.Iv.Start {
		if ja.Iv.Start < jb.Iv.Start {
			return -1
		}
		return 1
	}
	if ja.Iv.End != jb.Iv.End {
		if ja.Iv.End < jb.Iv.End {
			return -1
		}
		return 1
	}
	return cmp.Compare(ja.ID, jb.ID)
}

// Components splits the instance into one sub-instance per connected
// component of the interval graph, ordered by component start. Indices refer
// to jobs by their IDs, which are preserved. Solving each component
// separately and concatenating is lossless for total busy time.
func (in *Instance) Components() []*Instance {
	n := in.N()
	if n == 0 {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		ia, ib := in.Jobs[a].Iv, in.Jobs[b].Iv
		if ia.Start != ib.Start {
			return cmpCoord(ia.Start, ib.Start)
		}
		if ia.End != ib.End {
			return cmpCoord(ia.End, ib.End)
		}
		return a - b // index tiebreak: total order, deterministic components
	})
	var out []*Instance
	var cur []Job
	reach := in.Jobs[order[0]].Iv.End
	flush := func() {
		if len(cur) == 0 {
			return
		}
		jobs := make([]Job, len(cur))
		copy(jobs, cur)
		out = append(out, &Instance{
			Name: fmt.Sprintf("%s/comp%d", in.Name, len(out)),
			G:    in.G,
			Jobs: jobs,
		})
		cur = cur[:0]
	}
	for _, idx := range order {
		j := in.Jobs[idx]
		if len(cur) > 0 && j.Iv.Start > reach {
			flush()
			reach = j.Iv.End
		}
		cur = append(cur, j)
		if j.Iv.End > reach {
			reach = j.Iv.End
		}
	}
	flush()
	return out
}

var errNoJobs = errors.New("core: instance has no jobs")

// Hull returns the smallest interval containing all jobs.
func (in *Instance) Hull() (interval.Interval, error) {
	h, ok := in.Set().Hull()
	if !ok {
		return interval.Interval{}, errNoJobs
	}
	return h, nil
}
