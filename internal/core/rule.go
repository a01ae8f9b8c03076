package core

import "math/bits"

// Rule names one of the kernel's greedy placement rules. Every greedy
// algorithm of the library is one Rule driven in one job order: FirstFit
// (§2.1) is LowestFit in length order, the §3.1 proper greedy is NextFit in
// start order, and the online model runs a rule in arrival order.
//
// Every rule is sound with respect to the naive per-machine scan it
// replaces: prunings only skip machines that provably cannot change the
// outcome, so kernel-routed schedulers are byte-identical to their ad-hoc
// loops (the registry-wide differential suite pins this down).
type Rule int

const (
	// LowestFit is the FirstFit rule (Schedule.FirstFitAssign).
	LowestFit Rule = iota
	// BestFit is the least-busy-time-growth argmin (Schedule.BestFit).
	BestFit
	// NextFit is the single-open-machine cursor (Schedule.NextFit).
	NextFit
)

// Apply places job index j by rule r and returns the machine.
func (s *Schedule) Apply(r Rule, j int) int {
	switch r {
	case BestFit:
		return s.BestFit(j)
	case NextFit:
		return s.NextFit(j)
	default:
		return s.FirstFitAssign(j)
	}
}

// NextFit places job index j on the kernel's single open machine, opening a
// fresh one (and abandoning the old one permanently) when the job does not
// fit, and returns the machine. The cursor lives on the schedule and starts
// closed, so the first call always opens machine 0 and a recycled schedule
// resets it for free.
func (s *Schedule) NextFit(j int) int {
	if s.cursor != Unassigned {
		lo, hi := s.jobBuckets(j)
		if s.tryAssign(j, s.cursor, lo, hi) {
			return s.cursor
		}
	}
	s.cursor = s.AssignNew(j)
	return s.cursor
}

// BestFit places job index j on the feasible machine whose busy time grows
// the least — ties to the lowest index, a fresh machine when none fits — and
// returns the machine. The scan is pruned by two sound observations on top
// of the capacity hints:
//
//   - a machine whose busy hull is disjoint from the job's window (or that
//     is empty) grows by the full job length, the maximum possible delta, so
//     once any candidate is held such machines can never win the argmin
//     (ties go to the earlier candidate);
//   - a machine with a fully saturated axis bucket inside the job's window
//     provably rejects, so the index's saturation bitmap skips whole words
//     of such machines without probing them.
//
// Both prunings only skip machines the naive scan would also discard, so the
// produced schedule is byte-identical to probing every machine in order.
func (s *Schedule) BestFit(j int) int {
	m := s.BestFitProbe(j)
	if m == Unassigned {
		return s.AssignNew(j)
	}
	s.Assign(j, m)
	return m
}

// BestFitProbe is BestFit without the placement: it returns the machine
// BestFit would choose, or Unassigned when no machine fits. Callers that
// need to veto or record the decision place it themselves via Assign.
func (s *Schedule) BestFitProbe(j int) int {
	job := s.inst.Jobs[j]
	nm := len(s.machines)
	bestM, bestDelta := -1, 0.0
	if nm == 0 {
		return Unassigned
	}
	lo, hi := s.jobBuckets(j)
	for wi := 0; wi*64 < nm; wi++ {
		free := ^s.index.blockedWord(wi, lo, hi)
		for free != 0 {
			m := wi*64 + bits.TrailingZeros64(free)
			free &= free - 1
			if m >= nm {
				break
			}
			st := &s.machines[m]
			if bestM >= 0 && bestDelta <= job.Iv.Len() &&
				(len(st.jobs) == 0 || !job.Iv.Overlaps(st.hull)) {
				// A disjoint (or empty) machine's delta is exactly the job
				// length; it cannot beat the held candidate. The bestDelta
				// guard keeps the skip sound even if floating point ever
				// reported a candidate delta above the length.
				continue
			}
			if !s.canAssign(j, m, lo, hi) {
				continue
			}
			delta := st.spans.Delta(job.Iv)
			if bestM < 0 || delta < bestDelta {
				bestM, bestDelta = m, delta
			}
		}
	}
	if bestM < 0 {
		return Unassigned
	}
	return bestM
}
