// Package firstfit implements Algorithm FirstFit (Section 2.1 of the paper):
// sort jobs by non-increasing length and assign each to the lowest-indexed
// machine with residual capacity throughout the job's interval, opening a
// new machine when none fits.
//
// Theorem 2.1 shows FirstFit(J) ≤ 4·OPT(J) for every instance, and
// Theorem 2.4 exhibits instances forcing a ratio arbitrarily close to 3, so
// the algorithm's approximation ratio lies in [3, 4].
//
// Placement goes through the shared kernel (core.Placer): FirstFit is the
// LowestFit primitive driven in the paper's length order, whose machine
// selection index makes the scan sublinear. ScheduleLinear is an independent
// reference without any of the kernel's structures, kept for ablation A6 and
// the differential tests; both produce byte-identical schedules.
package firstfit

import (
	"busytime/internal/algo"
	"busytime/internal/core"
)

func init() {
	algo.Register(algo.Algorithm{
		Name:        "firstfit",
		Description: "FirstFit by non-increasing length (§2.1, 4-approximation), indexed machine selection",
		Run:         Schedule,
		RunScratch:  ScheduleScratch,
		Decompose:   Decomposer(),
	})
}

// Decomposer declares FirstFit safe for the component-decomposition layer:
// LowestFit driven in the paper's length order, component by component,
// merged under the identity machine mapping. The length order restricted to
// a component is the component's length order, and a machine's jobs from
// other (time-disjoint) components never change a probe's outcome, so the
// merged run equals the sequential one exactly.
func Decomposer() *algo.Decomposer {
	return &algo.Decomposer{
		Order:        func(in *core.Instance) []int32 { return in.LengthOrder() },
		RunComponent: algo.ComponentLowestFit,
		Stitch:       true,
		Shard:        algo.ShardLowestFit,
	}
}

// Schedule runs FirstFit on a copy of the instance and returns a complete
// feasible schedule of the original instance (job order preserved).
func Schedule(in *core.Instance) *core.Schedule {
	s := core.NewSchedule(in)
	assignAllByLength(in, s.Placer())
	return s
}

// ScheduleScratch is Schedule with all schedule state drawn from sc, so a
// worker looping over a batch of instances reuses one set of allocations
// (the machine-selection index included). The returned schedule is only
// valid until sc's next use.
func ScheduleScratch(in *core.Instance, sc *core.Scratch) *core.Schedule {
	s := sc.NewSchedule(in)
	assignAllByLength(in, s.Placer())
	return s
}

// assignAllByLength feeds every job to the kernel in the paper's
// non-increasing length order, read from the instance's cached ordering
// (computed once per instance, like its time axis) so steady-state batch
// traffic neither sorts nor allocates per run.
func assignAllByLength(in *core.Instance, k core.Placer) {
	for _, j := range in.LengthOrder() {
		k.LowestFit(int(j))
	}
}

// ScheduleOrder runs FirstFit scanning jobs by the given index order. The
// paper's FirstFit uses non-increasing length; baselines reuse this routine
// with other orders.
func ScheduleOrder(in *core.Instance, order []int) *core.Schedule {
	s := core.NewSchedule(in)
	k := s.Placer()
	for _, j := range order {
		k.LowestFit(j)
	}
	return s
}

// ScheduleOrderScratch is ScheduleOrder drawing schedule state from sc.
func ScheduleOrderScratch(in *core.Instance, order []int, sc *core.Scratch) *core.Schedule {
	s := sc.NewSchedule(in)
	k := s.Placer()
	for _, j := range order {
		k.LowestFit(j)
	}
	return s
}
