// Package laminar solves busy-time scheduling exactly, in polynomial time,
// on laminar instances — families in which any two job intervals are either
// nested or disjoint (and, under this library's closed semantics, disjoint
// means not even touching). The paper's follow-up literature ([15], cited in
// §1.3) singles out laminar families as an exactly solvable special case;
// this package implements the level-grouping algorithm with a short proof:
//
// In a laminar family the jobs active at any instant form a nesting chain,
// so the depth N_t equals the nesting level. Assign every job of nesting
// level ℓ to machine ⌈ℓ/g⌉. Each machine then runs at most g levels, whose
// jobs form chains at every instant — capacity is respected. Machine i is
// busy exactly where N_t ≥ (i−1)g+1, hence
//
//	cost = Σ_i measure{t : N_t ≥ (i−1)g+1} = ∫ ⌈N_t/g⌉ dt,
//
// which is the fractional lower bound — no schedule can do better
// (Observation 1.1 generalized), so the schedule is optimal.
package laminar

import (
	"context"
	"fmt"
	"slices"

	"busytime/internal/algo"
	"busytime/internal/core"
	"busytime/internal/interval"
)

func init() {
	algo.Register(algo.Algorithm{
		Name:        "laminar",
		Description: "exact level-grouping for laminar instances (optimal, polynomial)",
		Run: func(_ context.Context, in *core.Instance, sc *core.Scratch) (*core.Schedule, error) {
			return schedule(in, sc)
		},
	})
}

// IsLaminar reports whether every pair of intervals is nested or strictly
// disjoint (touching pairs count as overlapping, hence non-laminar, matching
// the library's closed capacity semantics).
func IsLaminar(set interval.Set) bool {
	for i := range set {
		for j := i + 1; j < len(set); j++ {
			a, b := set[i], set[j]
			if !a.Overlaps(b) {
				continue
			}
			if !a.ContainsInterval(b) && !b.ContainsInterval(a) {
				return false
			}
		}
	}
	return true
}

// Levels returns the nesting level (1-based) of every interval of a laminar
// set: 1 for roots, parent level + 1 for children. Equal intervals form a
// chain in input-index order.
func Levels(set interval.Set) []int {
	n := len(set)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Parents first: by start ascending, then end descending, then index.
	slices.SortFunc(order, func(a, b int) int {
		ia, ib := set[a], set[b]
		if ia.Start != ib.Start {
			if ia.Start < ib.Start {
				return -1
			}
			return 1
		}
		if ia.End != ib.End {
			if ia.End > ib.End {
				return -1
			}
			return 1
		}
		return a - b
	})
	levels := make([]int, n)
	type open struct {
		end   float64
		level int
	}
	var stack []open
	for _, idx := range order {
		iv := set[idx]
		// Pop ancestors that ended strictly before this interval starts.
		// An ancestor with end == start would be touching, which laminarity
		// already rules out for non-nested pairs; a true ancestor has
		// end ≥ iv.End ≥ iv.Start, so popping on end < start is safe.
		for len(stack) > 0 && stack[len(stack)-1].end < iv.Start {
			stack = stack[:len(stack)-1]
		}
		lvl := 1
		if len(stack) > 0 {
			lvl = stack[len(stack)-1].level + 1
		}
		levels[idx] = lvl
		stack = append(stack, open{end: iv.End, level: lvl})
	}
	return levels
}

// Schedule returns an optimal schedule of a laminar instance by assigning
// nesting level ℓ to machine ⌈ℓ/g⌉. It errors when the instance is not
// laminar. The result's cost equals core.FractionalBound(in).
func Schedule(in *core.Instance) (*core.Schedule, error) {
	return schedule(in, new(core.Scratch))
}

func schedule(in *core.Instance, sc *core.Scratch) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	for _, j := range in.Jobs {
		if j.Demand != 1 {
			return nil, fmt.Errorf("laminar: job %d has demand %d; level grouping needs unit demands",
				j.ID, j.Demand)
		}
	}
	set := in.Set()
	if !IsLaminar(set) {
		return nil, fmt.Errorf("laminar: instance %q is not laminar", in.Name)
	}
	levels := Levels(set)
	maxLevel := 0
	for _, l := range levels {
		if l > maxLevel {
			maxLevel = l
		}
	}
	s := sc.NewSchedule(in)
	numMachines := (maxLevel + in.G - 1) / in.G
	for m := 0; m < numMachines; m++ {
		s.OpenMachine()
	}
	for j, l := range levels {
		s.Assign(j, (l-1)/in.G)
	}
	if err := s.Verify(); err != nil {
		return nil, fmt.Errorf("laminar: produced infeasible schedule: %w", err)
	}
	return s, nil
}
