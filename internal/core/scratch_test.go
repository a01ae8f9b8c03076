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

// naiveLoad recomputes from scratch, ignoring every hint, the load job j
// would land on at machine m: the demand-weighted closed max depth of the
// machine's jobs within the job's window.
func naiveLoad(s *Schedule, j, m int) int {
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
	return set.MaxDepth()
}

// TestCanAssignHintsMatchNaive drives first-fit placement on random
// instances and checks every probe — hint-resolved or tree-resolved —
// against the naive recomputation: the verdict, the load bound an accept
// hands to insert, and that a fill is exact.
func TestCanAssignHintsMatchNaive(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := randInstance(r, 120, 1+r.Intn(5))
		s := NewSchedule(in)
		for j := range in.Jobs {
			placed := false
			rec := s.record(j)
			lo, hi := s.ia.buckets(rec.w)
			for m := 0; m < s.NumMachines(); m++ {
				used, v := s.canAssign(&rec, m, lo, hi)
				load, d := naiveLoad(s, j, m), in.Jobs[j].Demand
				switch {
				case (v != rejects) != (load+d <= in.G):
					t.Fatalf("seed %d: job %d on machine %d: verdict %d, naive load %d + demand %d, g = %d", seed, j, m, v, load, d, in.G)
				case v != rejects && used < load:
					t.Fatalf("seed %d: job %d on machine %d: load bound %d below the naive load %d", seed, j, m, used, load)
				case v == fills && load+d != in.G:
					t.Fatalf("seed %d: job %d on machine %d: fills, but naive load %d + demand %d < g = %d", seed, j, m, load, d, in.G)
				}
				if v != rejects && !placed {
					s.Assign(j, m)
					placed = true
				}
			}
			if !placed {
				openFor(s, j)
			}
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestTryAssignMatchesCanAssignPlusAssign runs the same first-fit placement
// through tryAssign and through canAssign then put, and requires identical
// machine assignments and costs: tryAssign's shared probe and insert decide
// exactly what a separate probe and placement decide.
func TestTryAssignMatchesCanAssignPlusAssign(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := randInstance(r, 150, 1+r.Intn(5))

		a := NewSchedule(in)
		for j := range in.Jobs {
			rec := a.record(j)
			lo, hi := a.ia.buckets(rec.w)
			placed := false
			for m := 0; m < a.NumMachines() && !placed; m++ {
				placed = a.tryAssign(&rec, m, lo, hi)
			}
			if !placed {
				openFor(a, j)
			}
		}

		b := NewSchedule(in)
		for j := range in.Jobs {
			rec := b.record(j)
			lo, hi := b.ia.buckets(rec.w)
			placed := false
			for m := 0; m < b.NumMachines() && !placed; m++ {
				if _, v := b.canAssign(&rec, m, lo, hi); v != rejects {
					b.put(&rec, m)
					placed = true
				}
			}
			if !placed {
				openFor(b, j)
			}
		}

		for j := range in.Jobs {
			if a.MachineOf(j) != b.MachineOf(j) {
				t.Fatalf("seed %d: job %d on machine %d via tryAssign, %d via canAssign+put",
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
		order := indexOrder(in.N())
		s.ApplyOrder(LowestFit, order)
		fresh.ApplyOrder(LowestFit, order)
		if err := s.Verify(); err != nil {
			t.Fatalf("round %d: scratch schedule infeasible: %v", round, err)
		}
		if s.NumMachines() != fresh.NumMachines() || s.Cost() != fresh.Cost() {
			t.Fatalf("round %d: scratch (%d machines, cost %v) != fresh (%d machines, cost %v)",
				round, s.NumMachines(), s.Cost(), fresh.NumMachines(), fresh.Cost())
		}
	}
}

// TestApplyOrderZeroAllocSteadyState is the arena acceptance gate: after
// one warm-up pass, re-scheduling an instance through a recycled Scratch —
// NewSchedule and ApplyOrder, by each rule — performs zero allocations and
// no arena setup allocation. This covers the whole indexed pipeline:
// assignment slice, machine records, the record block ApplyOrder gathers
// into, saturation bitmap, shard directories, shard-pool chunks, sweep
// scratch and span unions.
func TestApplyOrderZeroAllocSteadyState(t *testing.T) {
	in := denseTestInstance(3000, 4, 1500, 25)
	order := in.LengthOrder()
	for _, rule := range []Rule{LowestFit, BestFit, NextFit} {
		sc := new(Scratch)
		run := func() { sc.NewSchedule(in).ApplyOrder(rule, order) }
		run() // warm-up sizes the arena for the instance
		if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
			t.Fatalf("rule %d: warm run allocated %v times per run; want 0", rule, allocs)
		}
		before := sc.Stats().SetupAllocs
		run()
		if after := sc.Stats().SetupAllocs; after != before {
			t.Fatalf("rule %d: warm run performed %d arena setup allocations; want 0", rule, after-before)
		}
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
	run := func(in *Instance) { sc.NewSchedule(in).ApplyOrder(LowestFit, in.LengthOrder()) }
	for _, in := range []*Instance{big, small, tiny} {
		run(in) // warm-up (also builds each instance's cached axis and order)
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
	run := func() { sc.NewSchedule(in).ApplyOrder(LowestFit, in.LengthOrder()) }
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
	openFor(old, 0)
	if got := old.NumMachines(); got != 1 {
		t.Fatalf("NumMachines = %d, want 1", got)
	}
	_ = sc.NewSchedule(in)
	if got := old.NumMachines(); got != 0 {
		t.Errorf("reclaimed schedule still reports %d machines; want 0 (state stripped)", got)
	}
}
