package busytime

import (
	"fmt"
	"math"

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

// ComponentStat describes one unit a decomposed solve ran: a chunk of
// consecutive whole components, or a time shard when the solve was sharded.
type ComponentStat = decomp.ComponentStat

// DecompStats reports what the component-decomposition layer did during one
// Solve (see WithIntraWorkers and WithTimeSharding): component count,
// largest component, worker and shard counts, per-phase wall times and the
// units actually solved. The zero value means the layer was never
// consulted — it is off, or the algorithm does not decompose. Components
// alone set (Workers == 0) means the layer swept the instance but declined,
// and the ordinary sequential path produced the same schedule.
// PerComponent rides the session's recycled solver state: it is valid
// until a later Solve on this Solver reuses the same internal runner — the
// same window as an arena-mode Schedule. Callers that retain it must copy.
type DecompStats = decomp.Stats

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
	return sim.Check(r.Schedule, tol*math.Max(1, math.Abs(r.Cost)))
}

// Detach moves the Result's schedule out of the Solver's recycled arena
// into caller-owned memory, after which it stays valid indefinitely. It is
// a no-op on fresh-mode results beyond one copy. The copy carries the
// arena schedule's assignment, machine job lists, busy spans, busy totals
// and Cost bit for bit. Like a decomposed solve's schedule it is sealed:
// every read (Cost, MachineBusy, Verify, Summary, CrossCheck, …) works,
// while placements (ApplyOrder, Assign) panic, since it carries no
// capacity oracle.
//
// Detach reads the arena-backed schedule, so it is subject to the same
// lifetime window as any other Schedule access: call it before the arena
// is reused — that is, before the next Solve on this Solver from any
// goroutine. Pipelines that retain schedules while solving concurrently
// should build the Solver with WithFreshSchedules instead.
func (r *Result) Detach() error {
	if r.Schedule != nil {
		r.Schedule = core.CopySchedule(r.Schedule)
	}
	return nil
}
