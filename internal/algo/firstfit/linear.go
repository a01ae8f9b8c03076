package firstfit

import (
	"slices"

	"busytime/internal/core"
)

// ScheduleLinear is FirstFit with none of the kernel's capacity structures:
// each machine keeps a plain job list, machines are probed in index order,
// and a feasibility test sweeps every job on the machine. The produced
// assignment is identical to Schedule (same order, same first-fit rule); the
// function is the independent reference of the differential tests and the
// baseline of ablation A6, which measures what the kernel buys at scale.
func ScheduleLinear(in *core.Instance) *core.Schedule {
	order := in.LengthOrder()
	type machine struct {
		jobs []int
	}
	var machines []*machine

	fits := func(mc *machine, j int) bool {
		job := in.Jobs[j]
		// Demand-weighted closed-depth check within the job's window by a
		// full sweep over the machine's jobs.
		type evt struct {
			t     float64
			delta int
		}
		var evs []evt
		for _, jj := range mc.jobs {
			other := in.Jobs[jj]
			x, ok := other.Iv.Intersect(job.Iv)
			if !ok {
				continue
			}
			evs = append(evs, evt{x.Start, other.Demand}, evt{x.End, -other.Demand})
		}
		if len(evs) == 0 {
			return job.Demand <= in.G
		}
		slices.SortFunc(evs, func(a, b evt) int {
			if a.t != b.t {
				if a.t < b.t {
					return -1
				}
				return 1
			}
			return b.delta - a.delta
		})
		depth, peak := 0, 0
		for _, e := range evs {
			depth += e.delta
			if depth > peak {
				peak = depth
			}
		}
		return peak+job.Demand <= in.G
	}

	assign := make([]int, in.N())
	for _, jj := range order {
		j := int(jj)
		placed := -1
		for m, mc := range machines {
			if fits(mc, j) {
				mc.jobs = append(mc.jobs, j)
				placed = m
				break
			}
		}
		if placed < 0 {
			machines = append(machines, &machine{jobs: []int{j}})
			placed = len(machines) - 1
		}
		assign[j] = placed
	}

	s := core.NewSchedule(in)
	for range machines {
		s.OpenMachine()
	}
	// Replay in the scan order so the incremental busy-time accounting sees
	// the same insertion sequence as Schedule and the costs compare exactly.
	for _, j := range order {
		s.Assign(int(j), assign[j])
	}
	return s
}
