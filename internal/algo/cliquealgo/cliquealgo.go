// Package cliquealgo implements the scheduling algorithm for cliques
// (Appendix of the paper): when all job intervals share a common point t,
// sort jobs by non-increasing distance δ_j = max(t−s_j, c_j−t) from t and
// pack them onto machines in consecutive groups of g.
//
// Theorem A.1: the algorithm's total busy time is at most 2·OPT(C). The key
// invariant (Claim 4) is that for every rank i the algorithm's i-th largest
// per-machine distance δ_A^i is at most the optimum's δ_O^i.
package cliquealgo

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"busytime/internal/algo"
	"busytime/internal/core"
)

func init() {
	algo.Register(algo.Algorithm{
		Name:        "clique",
		Description: "group-by-distance algorithm for clique instances (Appendix, 2-approximation)",
		Run: func(_ context.Context, in *core.Instance, sc *core.Scratch) (*core.Schedule, error) {
			return schedule(in, sc)
		},
	})
}

// Schedule runs the clique algorithm. It fails if the instance is not a
// clique (no common point exists).
func Schedule(in *core.Instance) (*core.Schedule, error) {
	return schedule(in, new(core.Scratch))
}

func schedule(in *core.Instance, sc *core.Scratch) (*core.Schedule, error) {
	if in.N() == 0 {
		return sc.NewSchedule(in), nil
	}
	t, ok := in.Set().CommonPoint()
	if !ok {
		return nil, fmt.Errorf("cliquealgo: instance %q is not a clique", in.Name)
	}
	return scheduleAroundInto(in, t, sc.NewSchedule(in)), nil
}

// ScheduleAround runs the clique algorithm using the given common point t.
// Callers that know a specific intersection point (e.g. the harness testing
// sensitivity to the choice of t) can pass it directly; the approximation
// guarantee holds for any point contained in all intervals.
func ScheduleAround(in *core.Instance, t float64) *core.Schedule {
	return scheduleAroundInto(in, t, core.NewSchedule(in))
}

func scheduleAroundInto(in *core.Instance, t float64, s *core.Schedule) *core.Schedule {
	order := distanceOrder(in, t)
	g := in.G
	for i, j := range order {
		if i%g == 0 {
			s.OpenMachine()
		}
		s.Assign(j, s.NumMachines()-1)
	}
	return s
}

// Delta returns δ_j = max(t−s_j, c_j−t), the maximal distance of an endpoint
// of the job from the point t.
func Delta(j core.Job, t float64) float64 {
	return math.Max(t-j.Iv.Start, j.Iv.End-t)
}

// distanceOrder returns job indices by non-increasing δ, ties by ID.
func distanceOrder(in *core.Instance, t float64) []int {
	order := make([]int, in.N())
	for i := range order {
		order[i] = i
	}
	jobs := in.Jobs
	slices.SortFunc(order, func(a, b int) int {
		da, db := Delta(jobs[a], t), Delta(jobs[b], t)
		if da != db {
			if da > db {
				return -1
			}
			return 1
		}
		return cmp.Compare(jobs[a].ID, jobs[b].ID)
	})
	return order
}

// MachineDeltas returns, for a schedule of a clique instance around point t,
// the per-machine maximal distances δ^i sorted non-increasingly. Used to
// check Claim 4 (δ_A^i ≤ δ_O^i) in tests and the harness.
func MachineDeltas(s *core.Schedule, t float64) []float64 {
	in := s.Instance()
	out := make([]float64, s.NumMachines())
	for m := range out {
		var d float64
		for _, j := range s.MachineJobs(m) {
			if dj := Delta(in.Jobs[j], t); dj > d {
				d = dj
			}
		}
		out[m] = d
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}
