package busytime

import (
	"fmt"
	"math"
	"time"

	"busytime/internal/core"
	"busytime/internal/decomp"
	"busytime/internal/sim"
)

// ArenaStats reports the scratch-arena traffic of one Solve: whether the
// call was served by a warm arena (one that had already scheduled an
// instance) and how many backing-array allocations the arena performed. A
// warm Solver re-solving a seen instance shape performs none. SolveBatch and
// SolveStream run every item through Solve, so each BatchResult carries its
// item's ArenaStats as Warm and SetupAllocs.
type ArenaStats struct {
	Warm        bool
	SetupAllocs int
}

// ComponentStat describes one connected component of a decomposed solve.
type ComponentStat struct {
	// Jobs is the component's job count.
	Jobs int
	// Solve is the component's solve wall time; zero when this component was
	// never solved individually (the layer declined before solving).
	Solve time.Duration
}

// DecompStats reports what the component-decomposition layer did during one
// Solve (see WithIntraWorkers). The zero value means the layer was never
// consulted — it is off, or the algorithm does not decompose. Components
// alone set (Workers == 0) means the layer swept the instance but declined —
// a single component, or no arena was idle — and the ordinary sequential path
// produced the schedule; by the layer's merge-identity guarantee the schedule
// is the same either way.
type DecompStats struct {
	// Components is the number of connected components of the instance's
	// interval graph (strictly time-disjoint job groups).
	Components int
	// Workers is how many workers solved components concurrently: this
	// Solve's own arena plus the spare ones borrowed from the pool.
	Workers int
	// LargestComponent is the job count of the largest component — the lower
	// bound on the critical path of the parallel solve.
	LargestComponent int
	// Shards is the time-shard count when this Solve took the opt-in
	// time-sharding path (WithTimeSharding), 0 otherwise; CrossingJobs is
	// the number of jobs that crossed a shard cut and were placed by the
	// sequential reconciliation pass.
	Shards, CrossingJobs int
	// SweepTime, SolveTime and MergeTime are the wall times of the three
	// phases: component labeling (plus shard-cut selection when sharding),
	// the concurrent per-component or per-shard solves as a whole, and the
	// ordered reassembly. ReconcileTime is the sequential crossing-job
	// placement pass between solve and merge (0 unless Shards > 0).
	SweepTime, SolveTime, MergeTime, ReconcileTime time.Duration
	// PerComponent lists the components (or, when Shards > 0, the shards)
	// in start order. The slice rides the session's recycled solver state:
	// it is valid until a later Solve on this Solver reuses the same
	// internal runner — the same window as an arena-mode Schedule. Callers
	// that retain it must copy.
	PerComponent []ComponentStat
}

// Decomposed reports whether the schedule was actually produced by the
// decompose–solve–merge path (component-parallel or time-sharded).
func (d DecompStats) Decomposed() bool { return d.Workers > 0 }

// Sharded reports whether the schedule was produced by the opt-in
// time-sharding path; such a schedule is feasible but not bitwise-identical
// to the sequential run (see WithTimeSharding).
func (d DecompStats) Sharded() bool { return d.Shards > 0 }

// newDecompStatsInto converts the layer's runner-owned telemetry into the
// public form, drawing the PerComponent backing array from slot — a
// per-runner stash that rides the pooled runner between leases — so warm
// Solves stop allocating stats. The caller must finish with the returned
// value's PerComponent before the same runner serves another Solve.
func newDecompStatsInto(st decomp.Stats, slot *any) DecompStats {
	d := DecompStats{
		Components:       st.Components,
		Workers:          st.Workers,
		LargestComponent: st.Largest,
		Shards:           st.Shards,
		CrossingJobs:     st.Crossing,
		SweepTime:        st.Sweep,
		SolveTime:        st.Solve,
		MergeTime:        st.Merge,
		ReconcileTime:    st.Reconcile,
	}
	if len(st.Sizes) > 0 {
		buf, _ := (*slot).([]ComponentStat)
		if cap(buf) < len(st.Sizes) {
			buf = make([]ComponentStat, len(st.Sizes))
			*slot = buf
		}
		buf = buf[:len(st.Sizes)]
		for i, sz := range st.Sizes {
			buf[i].Jobs = int(sz)
			buf[i].Solve = 0
			if i < len(st.Times) {
				buf[i].Solve = st.Times[i]
			}
		}
		d.PerComponent = buf
	}
	return d
}

// Result is the outcome of one Solve: the schedule plus the metrics every
// caller of a scheduling library ends up recomputing — cost, every lower
// bound, the optimality gap against the strongest bound, and arena reuse
// stats.
type Result struct {
	// Algorithm is the registered name that produced the schedule.
	Algorithm string
	// Schedule is the produced assignment. In the default arena mode it
	// lives in the Solver's recycled memory and is valid until a later
	// Solve leases the same arena — extract what you need immediately,
	// Detach it, or build the Solver with WithFreshSchedules.
	Schedule *Schedule
	// Machines is the number of machines opened.
	Machines int
	// Cost is the schedule's total busy time.
	Cost float64
	// Bounds carries every lower bound on OPT: span and parallelism
	// (Observation 1.1) and the dominating fractional bound ∫⌈D_t/g⌉dt.
	Bounds Bounds
	// Arena reports scratch reuse for this call; zero in fresh mode.
	Arena ArenaStats
	// Decomp reports the component-decomposition layer's work for this call;
	// zero unless the session enables WithIntraWorkers.
	Decomp DecompStats
}

// LowerBound returns the strongest lower bound on OPT (the fractional
// bound).
func (r Result) LowerBound() float64 { return r.Bounds.Fractional }

// Gap returns the absolute optimality gap Cost − LowerBound: the busy time
// that is provably not forced by the instance. The true gap to OPT is at
// most this.
func (r Result) Gap() float64 { return r.Cost - r.LowerBound() }

// Ratio returns Cost / LowerBound, the empirical approximation ratio
// witnessed against the strongest bound (0 when the bound is 0). Since the
// bound is below OPT, the true ratio Cost/OPT is at most this.
func (r Result) Ratio() float64 {
	if lb := r.LowerBound(); lb > 0 {
		return r.Cost / lb
	}
	return 0
}

// CrossCheck replays the schedule through the library's discrete-event
// simulator and returns an error unless the busy time a machine executing it
// would bill agrees with the analytic Cost and no capacity is ever exceeded.
// The tolerance is relative: the two totals must agree within
// tol·max(1, |Cost|), so the same tol is meaningful for ten jobs or a
// million (float summation orders differ between the two accountings).
//
// It reads the schedule, so in arena mode it is subject to the usual
// lifetime window: call it before the next Solve on the same Solver.
func (r Result) CrossCheck(tol float64) error {
	if r.Schedule == nil {
		return fmt.Errorf("busytime: CrossCheck on a Result without a schedule")
	}
	rep, err := sim.Replay(r.Schedule)
	if err != nil {
		return err
	}
	if len(rep.Violations) > 0 {
		v := rep.Violations[0]
		return fmt.Errorf("busytime: machine %d holds load %d > g at t=%v (%d violations)",
			v.Machine, v.Load, v.T, len(rep.Violations))
	}
	if d := math.Abs(rep.TotalBusy - r.Cost); d > tol*math.Max(1, math.Abs(r.Cost)) {
		return fmt.Errorf("busytime: simulated busy time %v != analytic cost %v (Δ=%v)",
			rep.TotalBusy, r.Cost, d)
	}
	return nil
}

// Detach moves the Result's schedule out of the Solver's recycled arena
// into caller-owned memory, after which it stays valid indefinitely. It is
// a no-op on fresh-mode results beyond one copy.
//
// Detach reads the arena-backed schedule, so it is subject to the same
// lifetime window as any other Schedule access: call it before the arena
// is reused — that is, before the next Solve on this Solver from any
// goroutine. Pipelines that retain schedules while solving concurrently
// should build the Solver with WithFreshSchedules instead.
func (r *Result) Detach() error {
	if r.Schedule == nil {
		return nil
	}
	sched, err := core.FromAssignment(r.Schedule.Instance(), r.Schedule.Assignment())
	if err != nil {
		return err
	}
	r.Schedule = sched
	return nil
}
