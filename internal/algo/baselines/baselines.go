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
// Every baseline is a thin policy over the shared placement kernel
// (core.Placer): FirstFit variants drive LowestFit, BestFit drives the
// kernel's pruned argmin over span deltas, NextFit drives the kernel
// cursor.
package baselines

import (
	"busytime/internal/algo"
	"busytime/internal/algo/firstfit"
	"busytime/internal/core"
	"busytime/internal/intgraph"
	"busytime/internal/xrand"
)

func init() {
	algo.Register(algo.Algorithm{
		Name:        "firstfit-start",
		Description: "FirstFit scanning jobs by start time (no length sort)",
		Run:         FirstFitByStart,
		RunScratch:  FirstFitByStartScratch,
		Decompose: &algo.Decomposer{
			Order:        func(in *core.Instance) []int32 { return in.StartOrder() },
			RunComponent: algo.ComponentLowestFit,
			Stitch:       true,
			Shard:        algo.ShardLowestFit,
		},
	})
	// NextFit carries cross-component state — its single-open-machine cursor
	// survives a component boundary, so splitting the run changes which
	// machines get abandoned. Not decomposable.
	algo.Register(algo.Algorithm{
		Name:        "nextfit",
		Description: "NextFit in start order (single open machine)",
		Run:         NextFit,
		RunScratch:  NextFitScratch,
	})
	algo.Register(algo.Algorithm{
		Name:        "bestfit",
		Description: "BestFit by minimal busy-time increase, longest job first (indexed kernel argmin)",
		Run:         BestFit,
		RunScratch:  BestFitScratch,
		Decompose:   bestFitDecomposer(),
	})
	// MachineMin colors the whole interval graph at once; a component's
	// color classes shift globally, so it is not decomposable as registered.
	algo.Register(algo.Algorithm{
		Name:        "machine-min",
		Description: "⌈k/g⌉-machine schedule from optimal coloring (§1.1 remark)",
		Run:         MachineMin,
		RunScratch:  MachineMinScratch,
	})
	algo.Register(algo.Algorithm{
		Name:        "randomfit",
		Description: "FirstFit on a seeded random job order",
		Run:         func(in *core.Instance) *core.Schedule { return RandomFit(in, 1) },
		RunScratch: func(in *core.Instance, sc *core.Scratch) *core.Schedule {
			return RandomFitScratch(in, 1, sc)
		},
		Decompose: &algo.Decomposer{
			// The registered entry point fixes seed 1, so the decomposition
			// order is the same permutation the sequential run draws (the
			// permutation is derived per run either way).
			Order:        func(in *core.Instance) []int32 { return randomOrder32(in, 1) },
			RunComponent: algo.ComponentLowestFit,
			Stitch:       true,
			Shard:        algo.ShardLowestFit,
		},
	})
}

// bestFitDecomposer declares BestFit safe for the decomposition layer: the
// kernel argmin in length order, merged under the identity mapping. Machines
// holding only other components' jobs are hull-disjoint from every candidate
// job, so their delta is the full job length — the maximum — and they lose
// every argmin tie to lower indices; the component-local argmin therefore
// picks the same machine the sequential scan would.
func bestFitDecomposer() *algo.Decomposer {
	return &algo.Decomposer{
		Order:        func(in *core.Instance) []int32 { return in.LengthOrder() },
		RunComponent: algo.ComponentBestFit,
		Stitch:       true,
		Shard:        algo.ShardBestFit,
	}
}

// FirstFitByStart runs FirstFit scanning jobs by (start, end, ID).
func FirstFitByStart(in *core.Instance) *core.Schedule {
	return lowestFitByStart(in, core.NewSchedule(in))
}

// FirstFitByStartScratch is FirstFitByStart drawing schedule state from sc.
func FirstFitByStartScratch(in *core.Instance, sc *core.Scratch) *core.Schedule {
	return lowestFitByStart(in, sc.NewSchedule(in))
}

func lowestFitByStart(in *core.Instance, s *core.Schedule) *core.Schedule {
	k := s.Placer()
	for _, j := range in.StartOrder() {
		k.LowestFit(int(j))
	}
	return s
}

// NextFit assigns jobs in start order to a single currently open machine,
// opening a new one when the job does not fit. Unlike properfit this is the
// same algorithm — NextFit is the §3.1 greedy; it is re-exported here under
// its bin-packing name for harness comparisons on non-proper instances,
// where its 2-approximation guarantee does not apply.
func NextFit(in *core.Instance) *core.Schedule {
	return nextFitByStart(in, core.NewSchedule(in))
}

// NextFitScratch is NextFit drawing schedule state from sc.
func NextFitScratch(in *core.Instance, sc *core.Scratch) *core.Schedule {
	return nextFitByStart(in, sc.NewSchedule(in))
}

func nextFitByStart(in *core.Instance, s *core.Schedule) *core.Schedule {
	k := s.Placer()
	for _, j := range in.StartOrder() {
		k.NextFit(int(j))
	}
	return s
}

// BestFit scans jobs longest-first and assigns each to the machine whose
// busy time grows the least (ties to the lowest index), opening a new
// machine only when no machine fits. The argmin runs in the placement
// kernel: the saturation bitmap skips provably rejecting machines word-wide
// and hull-disjoint machines are dropped as soon as any candidate is held,
// so the scan touches only machines that can actually win.
func BestFit(in *core.Instance) *core.Schedule {
	return bestFitByLength(in, core.NewSchedule(in))
}

// BestFitScratch is BestFit drawing schedule state from sc; warm runs
// perform zero allocations (the alloc-budget gate in CI pins this).
func BestFitScratch(in *core.Instance, sc *core.Scratch) *core.Schedule {
	return bestFitByLength(in, sc.NewSchedule(in))
}

func bestFitByLength(in *core.Instance, s *core.Schedule) *core.Schedule {
	k := s.Placer()
	for _, j := range in.LengthOrder() {
		k.BestFit(int(j))
	}
	return s
}

// MachineMin builds the minimum-machine-count schedule of the §1.1 remark:
// color the interval graph optimally with k = ω colors, then pack color
// classes g at a time onto ⌈k/g⌉ machines. The result is optimal in the
// number of machines but can be far from optimal in busy time.
//
// MachineMin requires unit demands (the coloring argument does not apply to
// weighted jobs); it falls back to FirstFitByStart otherwise.
func MachineMin(in *core.Instance) *core.Schedule {
	if !unitDemands(in) {
		return FirstFitByStart(in)
	}
	return machineMinInto(in, core.NewSchedule(in))
}

// MachineMinScratch is MachineMin drawing schedule state from sc.
func MachineMinScratch(in *core.Instance, sc *core.Scratch) *core.Schedule {
	if !unitDemands(in) {
		return FirstFitByStartScratch(in, sc)
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
	g := intgraph.New(in.Set())
	classes := intgraph.ColorClasses(g.MinColoring())
	k := s.Placer()
	for ci, class := range classes {
		if ci%in.G == 0 {
			k.OpenMachine()
		}
		m := k.NumMachines() - 1
		for _, j := range class {
			k.Place(j, m)
		}
	}
	return s
}

// RandomFit runs FirstFit on a deterministic pseudo-random permutation of
// the jobs derived from seed.
func RandomFit(in *core.Instance, seed int64) *core.Schedule {
	return firstfit.ScheduleOrder(in, randomOrder(in, seed))
}

// RandomFitScratch is RandomFit drawing schedule state from sc (the
// permutation itself is still derived per run).
func RandomFitScratch(in *core.Instance, seed int64, sc *core.Scratch) *core.Schedule {
	return firstfit.ScheduleOrderScratch(in, randomOrder(in, seed), sc)
}

func randomOrder(in *core.Instance, seed int64) []int {
	order := make([]int, in.N())
	for i := range order {
		order[i] = i
	}
	shuffle(order, seed)
	return order
}

// randomOrder32 is randomOrder in the registry's order representation; seed
// and n determine the permutation, so it matches randomOrder element for
// element.
func randomOrder32(in *core.Instance, seed int64) []int32 {
	order := make([]int32, in.N())
	for i := range order {
		order[i] = int32(i)
	}
	shuffle(order, seed)
	return order
}

// shuffle permutes order with the library's splitmix64 generator
// (deterministic in seed and platform-independent, unlike math/rand).
func shuffle[T int | int32](order []T, seed int64) {
	xrand.New(seed).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
}
