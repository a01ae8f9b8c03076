package core

import (
	"math/bits"

	"busytime/internal/interval"
)

// Placer is the shared placement kernel: a stateless view over a Schedule
// exposing the order-parameterized placement primitives every scheduler of
// the library composes. The kernel owns the fast substrate — the machine
// selection index, the saturation bitmap, the time-sharded capacity oracle
// and the recyclable arena — so an algorithm is
// just a policy choosing which primitive to call for each job (the greedy
// ones are named by Rule and applied with Apply):
//
//   - LowestFit: the FirstFit rule — lowest-indexed machine that fits, a
//     fresh machine when none does (index-accelerated, see FirstFitAssign);
//   - BestFit: argmin of the busy-time increase over all feasible machines,
//     ties to the lowest index, with sound index prunings;
//   - NextFit: a single-open-machine cursor that abandons machines
//     permanently on overflow;
//   - CanPlace / TryPlace / Place / PlaceNew: capacity probes and raw
//     placements for bespoke policies (colorings, matchings, exact search).
//
// Every primitive is sound with respect to the naive per-machine scan it
// replaces: prunings only skip machines that provably cannot change the
// outcome, so kernel-routed schedulers are byte-identical to their ad-hoc
// loops (the registry-wide differential suite pins this down).
//
// A Placer is a value — obtain one with Schedule.Placer and pass it by
// value; it holds no state of its own (the NextFit cursor lives on the
// schedule, so recycled schedules reset it for free).
type Placer struct {
	s *Schedule
}

// Placer returns the placement-kernel view of the schedule.
func (s *Schedule) Placer() Placer { return Placer{s: s} }

// Schedule returns the underlying schedule.
func (p Placer) Schedule() *Schedule { return p.s }

// Instance returns the instance being scheduled.
func (p Placer) Instance() *Instance { return p.s.inst }

// NumMachines returns the number of opened machines.
func (p Placer) NumMachines() int { return p.s.NumMachines() }

// MachineOf returns the machine of job index j, or Unassigned.
func (p Placer) MachineOf(j int) int { return p.s.MachineOf(j) }

// CanPlace reports whether job index j fits on machine m (capacity probe;
// see Schedule.CanAssign).
func (p Placer) CanPlace(j, m int) bool { return p.s.CanAssign(j, m) }

// Place puts job index j on machine m without a capacity check; callers are
// responsible for feasibility (via CanPlace, or by construction).
func (p Placer) Place(j, m int) { p.s.Assign(j, m) }

// TryPlace atomically checks capacity and places job index j on machine m
// when it fits, reporting success.
func (p Placer) TryPlace(j, m int) bool { return p.s.TryAssign(j, m) }

// PlaceNew opens a fresh machine for job index j and returns it.
func (p Placer) PlaceNew(j int) int { return p.s.AssignNew(j) }

// OpenMachine creates a new empty machine and returns its index.
func (p Placer) OpenMachine() int { return p.s.OpenMachine() }

// SpanDelta returns the busy-time increase machine m would incur from
// hosting iv, without modifying the schedule.
func (p Placer) SpanDelta(m int, iv interval.Interval) float64 { return p.s.SpanDelta(m, iv) }

// Rule names one of the kernel's greedy placement rules. Every greedy
// algorithm of the library is one Rule driven in one job order: FirstFit
// (§2.1) is LowestFit in length order, the §3.1 proper greedy is NextFit in
// start order, and the online model runs a rule in arrival order.
type Rule int

const (
	// LowestFit is the FirstFit rule (Placer.LowestFit).
	LowestFit Rule = iota
	// BestFit is the least-busy-time-growth argmin (Placer.BestFit).
	BestFit
	// NextFit is the single-open-machine cursor (Placer.NextFit).
	NextFit
)

// Apply places job index j by rule r and returns the machine.
func (p Placer) Apply(r Rule, j int) int {
	switch r {
	case BestFit:
		return p.BestFit(j)
	case NextFit:
		return p.NextFit(j)
	default:
		return p.LowestFit(j)
	}
}

// LowestFit places job index j by the FirstFit rule — the lowest-indexed
// machine that can process it, a fresh machine when none can — and returns
// the machine. The scan is sublinear (see Schedule.FirstFitAssign).
func (p Placer) LowestFit(j int) int { return p.s.FirstFitAssign(j) }

// NextFit places job index j on the kernel's single open machine, opening a
// fresh one (and abandoning the old one permanently) when the job does not
// fit, and returns the machine. The cursor starts closed: the first call
// always opens machine 0.
func (p Placer) NextFit(j int) int {
	s := p.s
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
func (p Placer) BestFit(j int) int {
	m := p.BestFitProbe(j)
	if m == Unassigned {
		return p.s.AssignNew(j)
	}
	p.s.Assign(j, m)
	return m
}

// BestFitProbe is BestFit without the placement: it returns the machine
// BestFit would choose, or Unassigned when no machine fits. Callers that
// need to veto or record the decision place it themselves via Place.
func (p Placer) BestFitProbe(j int) int {
	s := p.s
	job := s.inst.Jobs[j]
	nm := len(s.machines)
	bestM, bestDelta := -1, 0.0
	if nm == 0 {
		return Unassigned
	}
	bl := s.index.blockedMask(s.jobBuckets(j))
	for wi := 0; wi*64 < nm; wi++ {
		free := ^uint64(0)
		if wi < len(bl) {
			free = ^bl[wi]
		}
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
			if !s.CanAssign(j, m) {
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
