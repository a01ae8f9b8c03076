// Package baselines provides the comparison schedulers used by the
// benchmark harness:
//
//   - FirstFit by start time (FirstFit without the length sort — isolates
//     the contribution of step 1 of the paper's algorithm);
//   - NextFit in arrival (start) order;
//   - BestFit by minimal busy-time increase;
//   - the coloring-based machine-minimization schedule from the §1.1 remark
//     (⌈k/g⌉ machines from an optimal interval-graph coloring — optimal in
//     machine count, but not in busy time, which motivates the paper);
//   - RandomFit, FirstFit on a seeded random job order (noise floor).
//
// The four greedy baselines are registry rows (algo.GreedyRow): one kernel
// rule (core.LowestFit, core.BestFit, core.NextFit) in one job order, run
// by the shared driver algo.RunGreedy. BestFit's rule is the kernel's
// pruned argmin over span deltas.
package baselines

import (
	"context"

	"busytime/internal/algo"
	"busytime/internal/core"
	"busytime/internal/interval"
	"busytime/internal/xrand"
)

func init() {
	algo.RegisterGreedy(
		algo.GreedyRow{
			Name:        "firstfit-start",
			Description: "FirstFit scanning jobs by start time (no length sort)",
			Order:       (*core.Instance).StartOrder,
			Rule:        core.LowestFit,
		},
		// The same (order, rule) pair as properfit, registered under its
		// bin-packing name for harness comparisons on non-proper instances,
		// where the §3.1 2-approximation guarantee does not apply.
		algo.GreedyRow{
			Name:        "nextfit",
			Description: "NextFit in start order (single open machine)",
			Order:       (*core.Instance).StartOrder,
			Rule:        core.NextFit,
		},
		algo.GreedyRow{
			Name:        "bestfit",
			Description: "BestFit by minimal busy-time increase, longest job first (indexed kernel argmin)",
			Order:       (*core.Instance).LengthOrder,
			Rule:        core.BestFit,
		},
		// The registered entry point fixes seed 1, so the decomposition
		// order is the same permutation the sequential run draws (the
		// permutation is derived per run either way).
		algo.GreedyRow{
			Name:        "randomfit",
			Description: "FirstFit on a seeded random job order",
			Order:       func(in *core.Instance) []int32 { return randomOrder(in, 1) },
			Rule:        core.LowestFit,
		},
	)
	// MachineMin colors the whole interval graph at once; a component's
	// color classes shift globally, so it is not decomposable as registered.
	algo.Register(algo.Algorithm{
		Name:        "machine-min",
		Description: "⌈k/g⌉-machine schedule from optimal coloring (§1.1 remark)",
		Run: func(_ context.Context, in *core.Instance, sc *core.Scratch) (*core.Schedule, error) {
			return machineMin(in, sc), nil
		},
	})
}

// MachineMin builds the minimum-machine-count schedule of the §1.1 remark:
// color the interval graph optimally with k = ω colors, then pack color
// classes g at a time onto ⌈k/g⌉ machines. The result is optimal in the
// number of machines but can be far from optimal in busy time.
//
// MachineMin requires unit demands (the coloring argument does not apply to
// weighted jobs); it falls back to FirstFit by start time otherwise.
func MachineMin(in *core.Instance) *core.Schedule { return machineMin(in, new(core.Scratch)) }

// machineMin is MachineMin drawing schedule state from sc.
func machineMin(in *core.Instance, sc *core.Scratch) *core.Schedule {
	if !unitDemands(in) {
		return algo.RunGreedy(in, sc, in.StartOrder(), core.LowestFit)
	}
	return machineMinInto(in, sc.NewSchedule(in))
}

func unitDemands(in *core.Instance) bool {
	for _, j := range in.Jobs {
		if j.Demand != 1 {
			return false
		}
	}
	return true
}

func machineMinInto(in *core.Instance, s *core.Schedule) *core.Schedule {
	for ci, class := range interval.MinColoring(in.Set()) {
		if ci%in.G == 0 {
			s.OpenMachine()
		}
		m := s.NumMachines() - 1
		for _, j := range class {
			s.Assign(j, m)
		}
	}
	return s
}

// RandomFit runs FirstFit on a deterministic pseudo-random permutation of
// the jobs derived from seed.
func RandomFit(in *core.Instance, seed int64) *core.Schedule {
	return algo.RunGreedy(in, new(core.Scratch), randomOrder(in, seed), core.LowestFit)
}

// randomOrder permutes the job indices with the library's splitmix64
// generator (deterministic in seed and platform-independent, unlike
// math/rand).
func randomOrder(in *core.Instance, seed int64) []int32 {
	order := make([]int32, in.N())
	for i := range order {
		order[i] = int32(i)
	}
	xrand.New(seed).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	return order
}
