// Package firstfit implements Algorithm FirstFit (Section 2.1 of the paper):
// sort jobs by non-increasing length and assign each to the lowest-indexed
// machine with residual capacity throughout the job's interval, opening a
// new machine when none fits.
//
// Theorem 2.1 shows FirstFit(J) ≤ 4·OPT(J) for every instance, and
// Theorem 2.4 exhibits instances forcing a ratio arbitrarily close to 3, so
// the algorithm's approximation ratio lies in [3, 4].
//
// Placement goes through the shared kernel (core.Schedule): FirstFit is the
// greedy row (length order, core.LowestFit), and the kernel's machine
// selection index makes each LowestFit scan sublinear. ScheduleLinear is an
// independent reference without any of the kernel's structures, kept for
// ablation A6 and the differential tests; both produce byte-identical
// schedules.
package firstfit

import (
	"busytime/internal/algo"
	"busytime/internal/core"
)

func init() {
	algo.RegisterGreedy(algo.GreedyRow{
		Name:        "firstfit",
		Description: "FirstFit by non-increasing length (§2.1, 4-approximation), indexed machine selection",
		Order:       (*core.Instance).LengthOrder,
		Rule:        core.LowestFit,
	})
}

// Schedule runs FirstFit — LowestFit in the paper's non-increasing length
// order, read from the instance's cached ordering — and returns a complete
// feasible schedule of the instance (job order preserved).
func Schedule(in *core.Instance) *core.Schedule {
	return algo.RunGreedy(in, new(core.Scratch), in.LengthOrder(), core.LowestFit)
}

// ScheduleOrder runs the FirstFit rule scanning jobs in the given index
// order (the adversarial Fig. 4 family fixes its own order).
func ScheduleOrder(in *core.Instance, order []int32) *core.Schedule {
	return algo.RunGreedy(in, new(core.Scratch), order, core.LowestFit)
}
