// Package properfit implements the Greedy algorithm for proper interval
// graphs (Section 3.1 of the paper): sort jobs by start time (for proper
// instances this equals the completion-time order) and assign them NextFit
// style — keep filling the current machine; when adding the next job would
// create a (g+1)-clique on it, open a new machine.
//
// Theorem 3.1: on proper instances Greedy(J) ≤ OPT(J) + span(J) ≤ 2·OPT(J).
//
// The greedy is the registry's greedy row (start order, core.NextFit): the
// placement kernel's NextFit cursor driven in the instance's cached start
// order. The "nextfit" and "online-nextfit" rows are the same pair.
package properfit

import (
	"busytime/internal/algo"
	"busytime/internal/core"
)

func init() {
	algo.RegisterGreedy(algo.GreedyRow{
		Name:        "properfit",
		Description: "NextFit by start time for proper instances (§3.1, 2-approximation)",
		Order:       (*core.Instance).StartOrder,
		Rule:        core.NextFit,
	})
}

// Schedule runs the greedy NextFit. The 2-approximation guarantee of
// Theorem 3.1 requires a proper instance (use core.Instance.IsProper to
// check); the returned schedule is feasible for any instance.
func Schedule(in *core.Instance) *core.Schedule {
	return algo.RunGreedy(in, new(core.Scratch), in.StartOrder(), core.NextFit)
}
