package core

import (
	"math/rand"
	"testing"

	"busytime/internal/interval"
)

// randInstance builds a random demand-weighted instance for hint testing.
func randInstance(r *rand.Rand, n, g int) *Instance {
	ivs := make([]interval.Interval, n)
	for i := range ivs {
		s := r.Float64() * 50
		ivs[i] = interval.New(s, s+r.Float64()*15)
	}
	in := NewInstance(g, ivs...)
	for i := range in.Jobs {
		in.Jobs[i].Demand = 1 + r.Intn(g)
	}
	return in
}

// naiveCanAssign recomputes the capacity check from scratch, ignoring every
// hint: the demand-weighted closed max depth of the machine's jobs within
// the candidate's window.
func naiveCanAssign(s *Schedule, j, m int) bool {
	job := s.inst.Jobs[j]
	set := make(interval.Set, 0, 8)
	for _, jj := range s.machines[m].jobs {
		other := s.inst.Jobs[jj]
		if x, ok := other.Iv.Intersect(job.Iv); ok {
			for d := 0; d < other.Demand; d++ {
				set = append(set, x)
			}
		}
	}
	return set.MaxDepth()+job.Demand <= s.inst.G
}

// TestCanAssignHintsMatchNaive drives first-fit placement on random
// instances and checks every probe — hint-resolved or tree-resolved —
// against the naive recomputation.
func TestCanAssignHintsMatchNaive(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := randInstance(r, 120, 1+r.Intn(5))
		s := NewSchedule(in)
		for j := range in.Jobs {
			placed := false
			for m := 0; m < s.NumMachines(); m++ {
				got := s.CanAssign(j, m)
				if want := naiveCanAssign(s, j, m); got != want {
					t.Fatalf("seed %d: CanAssign(%d, %d) = %v, naive says %v", seed, j, m, got, want)
				}
				if got && !placed {
					s.Assign(j, m)
					placed = true
				}
			}
			if !placed {
				s.AssignNew(j)
			}
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestTryAssignMatchesCanAssignPlusAssign runs the same first-fit placement
// through TryAssign and through CanAssign+Assign and requires identical
// machine assignments and costs.
func TestTryAssignMatchesCanAssignPlusAssign(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := randInstance(r, 150, 1+r.Intn(5))

		a := NewSchedule(in)
		for j := range in.Jobs {
			placed := false
			for m := 0; m < a.NumMachines() && !placed; m++ {
				placed = a.TryAssign(j, m)
			}
			if !placed {
				a.AssignNew(j)
			}
		}

		b := NewSchedule(in)
		for j := range in.Jobs {
			placed := false
			for m := 0; m < b.NumMachines() && !placed; m++ {
				if b.CanAssign(j, m) {
					b.Assign(j, m)
					placed = true
				}
			}
			if !placed {
				b.AssignNew(j)
			}
		}

		for j := range in.Jobs {
			if a.MachineOf(j) != b.MachineOf(j) {
				t.Fatalf("seed %d: job %d on machine %d via TryAssign, %d via CanAssign+Assign",
					seed, j, a.MachineOf(j), b.MachineOf(j))
			}
		}
		if err := a.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a.Cost() != b.Cost() {
			t.Fatalf("seed %d: costs differ: %v vs %v", seed, a.Cost(), b.Cost())
		}
	}
}

// TestScratchReuse runs a sequence of instances through one Scratch and
// checks each schedule agrees with a fresh one; it also checks the previous
// schedule is reclaimed rather than leaked.
func TestScratchReuse(t *testing.T) {
	sc := new(Scratch)
	r := rand.New(rand.NewSource(42))
	for round := 0; round < 12; round++ {
		in := randInstance(r, 40+r.Intn(120), 1+r.Intn(4))
		s := sc.NewSchedule(in)
		fresh := NewSchedule(in)
		for j := range in.Jobs {
			placed := false
			for m := 0; m < s.NumMachines() && !placed; m++ {
				placed = s.TryAssign(j, m)
			}
			if !placed {
				s.AssignNew(j)
			}
			placedF := false
			for m := 0; m < fresh.NumMachines() && !placedF; m++ {
				placedF = fresh.TryAssign(j, m)
			}
			if !placedF {
				fresh.AssignNew(j)
			}
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("round %d: scratch schedule infeasible: %v", round, err)
		}
		if s.NumMachines() != fresh.NumMachines() || s.Cost() != fresh.Cost() {
			t.Fatalf("round %d: scratch (%d machines, cost %v) != fresh (%d machines, cost %v)",
				round, s.NumMachines(), s.Cost(), fresh.NumMachines(), fresh.Cost())
		}
	}
}

// TestFirstFitAssignZeroAllocSteadyState is the arena acceptance gate: after
// one warm-up pass, re-scheduling an instance through a recycled Scratch —
// NewSchedule and every FirstFitAssign — performs zero allocations. This
// covers the whole indexed pipeline: assignment slice, machine records,
// saturation bitmap, shard directories, shard-pool chunks, sweep scratch
// and span unions.
func TestFirstFitAssignZeroAllocSteadyState(t *testing.T) {
	in := denseTestInstance(3000, 4, 1500, 25)
	sc := new(Scratch)
	run := func() {
		s := sc.NewSchedule(in)
		for j := range in.Jobs {
			s.FirstFitAssign(j)
		}
	}
	run() // warm-up sizes the arena for the instance
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("warm indexed FirstFit allocated %v times per run; want 0", allocs)
	}
	stats := sc.Stats()
	before := stats.SetupAllocs
	run()
	if after := sc.Stats().SetupAllocs; after != before {
		t.Fatalf("warm run performed %d arena setup allocations; want 0", after-before)
	}
}

// TestScratchZeroAllocAcrossShrinkingInstances checks the arena's sizing
// discipline across instance changes: after warming on the largest instance
// of a set, scheduling any smaller instance allocates nothing (backing
// arrays only ever grow).
func TestScratchZeroAllocAcrossShrinkingInstances(t *testing.T) {
	big := denseTestInstance(4000, 3, 2000, 20)
	small := denseTestInstance(500, 5, 120, 8)
	tiny := denseTestInstance(40, 2, 30, 6)
	sc := new(Scratch)
	run := func(in *Instance) {
		s := sc.NewSchedule(in)
		for j := range in.Jobs {
			s.FirstFitAssign(j)
		}
	}
	for _, in := range []*Instance{big, small, tiny} {
		run(in) // warm-up (also builds each instance's cached axis)
	}
	run(big)
	for _, in := range []*Instance{small, tiny, big} {
		in := in
		if allocs := testing.AllocsPerRun(3, func() { run(in) }); allocs != 0 {
			t.Fatalf("n=%d after warm-up on larger instance: %v allocs per run; want 0", in.N(), allocs)
		}
	}
}

// TestScratchStatsCounts pins the telemetry the Solver reports: a cold
// scratch performs setup allocations, an identical second run performs none.
func TestScratchStatsCounts(t *testing.T) {
	in := denseTestInstance(800, 4, 400, 15)
	sc := new(Scratch)
	if got := sc.Stats(); got.Schedules != 0 || got.SetupAllocs != 0 {
		t.Fatalf("fresh scratch reports %+v", got)
	}
	run := func() {
		s := sc.NewSchedule(in)
		for j := range in.Jobs {
			s.FirstFitAssign(j)
		}
	}
	run()
	first := sc.Stats()
	if first.Schedules != 1 || first.SetupAllocs == 0 {
		t.Fatalf("cold run reports %+v; want 1 schedule and nonzero setup allocs", first)
	}
	run()
	second := sc.Stats()
	if second.Schedules != 2 {
		t.Fatalf("Schedules = %d, want 2", second.Schedules)
	}
	if second.SetupAllocs != first.SetupAllocs {
		t.Fatalf("warm identical run performed %d setup allocs; want 0", second.SetupAllocs-first.SetupAllocs)
	}
}

// TestScratchInvalidatesPreviousSchedule documents the reuse contract: the
// schedule handed out before the latest NewSchedule call is dead.
func TestScratchInvalidatesPreviousSchedule(t *testing.T) {
	sc := new(Scratch)
	in := NewInstance(2, interval.New(0, 1))
	old := sc.NewSchedule(in)
	old.AssignNew(0)
	if got := old.NumMachines(); got != 1 {
		t.Fatalf("NumMachines = %d, want 1", got)
	}
	_ = sc.NewSchedule(in)
	if got := old.NumMachines(); got != 0 {
		t.Errorf("reclaimed schedule still reports %d machines; want 0 (state stripped)", got)
	}
}
