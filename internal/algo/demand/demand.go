// Package demand implements the extension the paper highlights in §1.3
// (later formalized by Khandekar, Schieber, Shachnai and Tamir [15]): each
// job has a release time, a due date, a processing time and a demand for
// machine capacity, and the scheduler chooses both a start time and a
// machine. Once start times are fixed the problem collapses to the paper's
// fixed-interval problem with demand-weighted capacity.
//
// The scheduler here follows the same design recipe as the paper's
// FirstFit: process jobs longest-first and place each one greedily — over
// every open machine and a small set of candidate start times (the release
// time plus alignments with the machine's existing busy pieces), pick the
// placement that adds the least busy time, opening a new machine at the
// release time when nothing fits. We do not claim the [15] worst-case factor
// of 5 for this variant; the harness measures its ratio against the
// demand-weighted fractional bound (experiment E10).
package demand

import (
	"cmp"
	"fmt"
	"slices"

	"busytime/internal/core"
	"busytime/internal/interval"
)

// FlexJob is a job with a flexible start: it must run for Proc time units
// inside [Release, Due], consuming Demand capacity slots while running.
type FlexJob struct {
	ID      int
	Release float64
	Due     float64
	Proc    float64
	Demand  int
}

// Window returns [Release, Due], the allowed execution window.
func (j FlexJob) Window() interval.Interval { return interval.New(j.Release, j.Due) }

// Slack returns Due − Release − Proc, the scheduling freedom.
func (j FlexJob) Slack() float64 { return j.Due - j.Release - j.Proc }

// FlexInstance is a flexible busy-time instance.
type FlexInstance struct {
	Name string
	G    int
	Jobs []FlexJob
}

// Validate checks g ≥ 1, demand bounds, and that every window fits its job.
func (in *FlexInstance) Validate() error {
	if in.G < 1 {
		return fmt.Errorf("demand: g = %d, want ≥ 1", in.G)
	}
	seen := map[int]bool{}
	for _, j := range in.Jobs {
		if seen[j.ID] {
			return fmt.Errorf("demand: duplicate job ID %d", j.ID)
		}
		seen[j.ID] = true
		if j.Demand < 1 || j.Demand > in.G {
			return fmt.Errorf("demand: job %d demand %d outside [1,%d]", j.ID, j.Demand, in.G)
		}
		if j.Proc < 0 {
			return fmt.Errorf("demand: job %d negative processing time", j.ID)
		}
		if j.Slack() < -1e-12 {
			return fmt.Errorf("demand: job %d window [%v,%v] shorter than processing %v",
				j.ID, j.Release, j.Due, j.Proc)
		}
	}
	return nil
}

// WorkBound returns the demand-weighted parallelism lower bound
// Σ Demand·Proc / g, valid for every feasible schedule.
func (in *FlexInstance) WorkBound() float64 {
	var w float64
	for _, j := range in.Jobs {
		w += float64(j.Demand) * j.Proc
	}
	return w / float64(in.G)
}

// Result is a flexible schedule: chosen start times plus the induced
// fixed-interval schedule.
type Result struct {
	Starts   map[int]float64 // Job.ID -> chosen start
	Fixed    *core.Instance  // induced fixed-interval instance
	Schedule *core.Schedule
}

// Verify checks window feasibility of the starts and machine feasibility of
// the induced schedule.
func (r *Result) Verify(in *FlexInstance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	for _, j := range in.Jobs {
		st, ok := r.Starts[j.ID]
		if !ok {
			return fmt.Errorf("demand: job %d has no start", j.ID)
		}
		if st < j.Release-1e-9 || st+j.Proc > j.Due+1e-9 {
			return fmt.Errorf("demand: job %d start %v violates window [%v,%v] (proc %v)",
				j.ID, st, j.Release, j.Due, j.Proc)
		}
	}
	return r.Schedule.Verify()
}

// Schedule chooses start times and machines greedily, longest job first.
func Schedule(in *FlexInstance) (*Result, error) {
	return ScheduleScratch(in, new(core.Scratch))
}

// ScheduleScratch is Schedule with the induced fixed-interval schedule drawn
// from sc through the placement kernel (the start-time search still builds
// its own transient state). The result's Schedule field is only valid until
// sc's next use.
func ScheduleScratch(in *FlexInstance, sc *core.Scratch) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	order := make([]int, len(in.Jobs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		ja, jb := in.Jobs[a], in.Jobs[b]
		if ja.Proc != jb.Proc {
			if ja.Proc > jb.Proc {
				return -1
			}
			return 1
		}
		if ja.Release != jb.Release {
			if ja.Release < jb.Release {
				return -1
			}
			return 1
		}
		return cmp.Compare(ja.ID, jb.ID)
	})

	type placed struct {
		start   float64
		machine int
	}
	decided := make([]placed, len(in.Jobs))
	// machines[m] holds the placed intervals of machine m: capSet replicated
	// by demand for capacity accounting, busySet driving the candidate-start
	// proposals exactly as before, and busy as the incrementally merged span
	// union so busy-time deltas are binary searches, not set rebuilds.
	type machineState struct {
		capSet  interval.Set // one copy per demand unit
		busySet interval.Set // one copy per job
		busy    interval.Spans
	}
	var machines []*machineState

	for _, idx := range order {
		job := in.Jobs[idx]
		bestM, bestStart, bestDelta := -1, 0.0, 0.0
		for m, st := range machines {
			for _, cand := range candidateStarts(job, st.busySet) {
				ivl := interval.New(cand, cand+job.Proc)
				if maxCapDepth(st.capSet, ivl)+job.Demand > in.G {
					continue
				}
				delta := st.busy.Delta(ivl)
				if bestM < 0 || delta < bestDelta-1e-12 {
					bestM, bestStart, bestDelta = m, cand, delta
				}
			}
		}
		if bestM < 0 {
			machines = append(machines, &machineState{})
			bestM, bestStart = len(machines)-1, job.Release
		}
		st := machines[bestM]
		ivl := interval.New(bestStart, bestStart+job.Proc)
		for d := 0; d < job.Demand; d++ {
			st.capSet = append(st.capSet, ivl)
		}
		st.busySet = append(st.busySet, ivl)
		st.busy.Add(ivl)
		decided[idx] = placed{start: bestStart, machine: bestM}
	}

	// Materialize the induced fixed instance and schedule.
	fixed := &core.Instance{Name: in.Name + "/fixed", G: in.G, Jobs: make([]core.Job, len(in.Jobs))}
	starts := make(map[int]float64, len(in.Jobs))
	for i, j := range in.Jobs {
		st := decided[i].start
		starts[j.ID] = st
		fixed.Jobs[i] = core.Job{ID: j.ID, Iv: interval.New(st, st+j.Proc), Demand: j.Demand}
	}
	s := sc.NewSchedule(fixed)
	maxM := -1
	for _, p := range decided {
		if p.machine > maxM {
			maxM = p.machine
		}
	}
	for m := 0; m <= maxM; m++ {
		s.OpenMachine()
	}
	for i, p := range decided {
		s.Assign(i, p.machine)
	}
	res := &Result{Starts: starts, Fixed: fixed, Schedule: s}
	if err := res.Verify(in); err != nil {
		return nil, fmt.Errorf("demand: produced infeasible result: %w", err)
	}
	return res, nil
}

// candidateStarts proposes start times within the job's window: the window
// edges plus alignments that butt the job against existing busy pieces
// (start at a piece start, or end at a piece end), the placements that can
// avoid growing the busy span.
func candidateStarts(job FlexJob, busy interval.Set) []float64 {
	latest := job.Due - job.Proc
	out := []float64{job.Release, latest}
	for _, p := range busy {
		for _, cand := range []float64{p.Start, p.End - job.Proc} {
			if cand >= job.Release && cand <= latest {
				out = append(out, cand)
			}
		}
	}
	return out
}

// maxCapDepth returns the maximum closed depth of capSet within w.
func maxCapDepth(capSet interval.Set, w interval.Interval) int {
	return capSet.MaxDepthWithin(w)
}
