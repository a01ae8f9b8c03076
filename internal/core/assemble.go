package core

import (
	"fmt"
	"slices"

	"busytime/internal/interval"
)

// Assembly builds a schedule whose placements are already known — the merge
// step of the decomposition layer, where per-chunk runs have decided every
// job's machine and built every machine's busy spans. Graft adopts those
// span pieces wholesale, and PutDelta replays the busy-time accounting, so
// the merge never re-runs a span union. Assembly skips every capacity
// structure: no time axis, shards or index, because feasibility was
// established by the runs being merged. The result is sealed — ApplyOrder
// and Assign panic on it, since its machines carry no oracle to answer
// them — while every read path (Cost, Verify, Summary, Assignment,
// CopySchedule) stays valid.
//
// Replay order matters for bitwise equality: Σ busy time is accumulated one
// placement at a time, so replaying the recorded deltas in the order the
// sequential algorithm would have placed the jobs reproduces its
// floating-point accumulation exactly.
type Assembly struct {
	s *Schedule
}

// BeginAssembly starts assembling a schedule for inst with the given number
// of pre-opened machines, drawn from sc (or fresh memory when sc is nil).
func BeginAssembly(inst *Instance, sc *Scratch, machines int) Assembly {
	s := blankSchedule(inst, sc)
	s.sealed = true
	for m := 0; m < machines; m++ {
		s.OpenMachine()
	}
	return Assembly{s: s}
}

// Graft adopts already-merged busy-span pieces onto machine m wholesale —
// the stitch merge of the decomposition layer. The pieces come from a
// per-chunk (or per-shard) run's live span union via
// Schedule.AppendMachineSpans; successive grafts onto one machine must
// arrive in ascending time order with positive gaps between them, which the
// component sweep guarantees (components are separated by gaps of positive
// length). Graft maintains the machine's busy hull but not its total: totals
// are replayed separately (PutDelta) so the assembled Cost reproduces the
// originating accumulation order bitwise.
func (a Assembly) Graft(m int, pieces []interval.Interval) {
	if len(pieces) == 0 {
		return
	}
	st := &a.s.machines[m]
	if st.spans.Count() == 0 {
		st.hull = interval.Interval{Start: pieces[0].Start, End: pieces[len(pieces)-1].End}
	} else {
		st.hull.End = pieces[len(pieces)-1].End
	}
	st.spans.Graft(pieces)
}

// PutDelta appends job index j to machine m replaying its recorded
// span-union delta instead of re-merging the interval: the machine's job
// list, its busy total and the schedule's Cost advance exactly as the
// originating run's placement did. Placements must arrive in the originating
// global order so the floating-point accumulation reproduces bit for bit;
// the span pieces themselves are adopted separately via Graft.
func (a Assembly) PutDelta(j, m int, delta float64) {
	s := a.s
	if s.assign[j] != Unassigned {
		panic(fmt.Sprintf("core: assembly placed job index %d twice", j))
	}
	st := &s.machines[m]
	st.jobs = append(st.jobs, j)
	st.spans.AddMeasure(delta)
	s.totalBusy += delta
	s.assign[j] = m
}

// Finish returns the assembled schedule, sealed since BeginAssembly.
func (a Assembly) Finish() *Schedule { return a.s }

// CopySchedule returns a copy of s in fresh memory: the same assignment,
// machine job lists, busy spans, busy totals, Cost and work counts, bit for
// bit, so it stays valid however the arena s was drawn from is reused. The
// copy is sealed like an assembly: it carries no capacity structures, so
// ApplyOrder and Assign panic on it.
func CopySchedule(s *Schedule) *Schedule {
	a := BeginAssembly(s.inst, nil, len(s.machines))
	c := a.s
	var pieces interval.Set
	for m := range s.machines {
		src, dst := &s.machines[m], &c.machines[m]
		pieces = src.spans.AppendTo(pieces[:0])
		a.Graft(m, pieces)
		dst.spans.AddMeasure(src.spans.Total())
		dst.jobs = slices.Clone(src.jobs)
	}
	copy(c.assign, s.assign)
	c.totalBusy, c.work = s.totalBusy, s.Work()
	return c
}
