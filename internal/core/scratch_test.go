package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

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

// recycleCase is one FuzzScratchRecycle input: a sequence of instances one
// Scratch serves in turn.
type recycleCase struct {
	seed int64
	// base scales the sequence's sizes (recycleSizes).
	base int
	// buckets caps every instance's axis (buildInstanceAxis), so a few
	// hundred jobs reach a decimated axis; 0 keeps the default cap.
	buckets int
	// prefix/256 of each instance's order is placed, at least one job.
	prefix int
	// rule is the first instance's rule; each later one takes the next.
	rule int
}

// recycleSizes are the multiples of base the sequence's instances take:
// they grow, shrink, then grow past the first peak.
var recycleSizes = []int{1, 4, 8, 2, 1, 10}

// recycleSeeds is FuzzScratchRecycle's seed corpus: whole orders on the
// default axis, half orders on axes a 150-bucket cap decimates (to stride
// 6 at most), and most of each order on 20-bucket axes (stride 12).
var recycleSeeds = []recycleCase{
	{seed: 1, base: 30, buckets: 0, prefix: 256, rule: 0},
	{seed: 2, base: 40, buckets: 150, prefix: 128, rule: 1},
	{seed: 3, base: 12, buckets: 20, prefix: 200, rule: 2},
}

// recycleReach is what a recycled sequence exercised: its most machines on
// one schedule and its largest axis stride.
type recycleReach struct{ machines, stride int }

// FuzzScratchRecycle serves one Scratch a fuzzed sequence of instances (see
// checkScratchRecycle and recycleSeeds).
func FuzzScratchRecycle(f *testing.F) {
	for _, tc := range recycleSeeds {
		f.Add(tc.seed, uint8(tc.base-1), uint16(tc.buckets), uint8(tc.prefix-1), uint8(tc.rule))
	}
	f.Fuzz(func(t *testing.T, seed int64, base uint8, buckets uint16, prefix, rule uint8) {
		checkScratchRecycle(t, recycleCase{
			seed:    seed,
			base:    1 + int(base)%60,
			buckets: int(buckets) % 1024,
			prefix:  1 + int(prefix),
			rule:    int(rule) % 3,
		})
	})
}

// TestScratchRecycleSeedsReachTheirCases pins what FuzzScratchRecycle's
// seeds are there for: every seed reaches a schedule of more than 64
// machines, so resets clear several bitmap columns, and every capped seed
// an axis decimated past its bucket cap.
func TestScratchRecycleSeedsReachTheirCases(t *testing.T) {
	for _, tc := range recycleSeeds {
		got := checkScratchRecycle(t, tc)
		if got.machines <= 64 || tc.buckets > 0 && got.stride < 2 {
			t.Errorf("seed %d: at most %d machines and axis stride %d under a %d-bucket cap; want more than 64 machines and, under a cap, a decimated axis",
				tc.seed, got.machines, got.stride, tc.buckets)
		}
	}
}

// checkScratchRecycle runs tc's instances through one Scratch, each placed
// by its rule over a prefix of its order, with a sealed assembly of the
// placements after every other one. Every reset must leave the whole
// assignment backing array Unassigned, and every indexed one the whole
// bitmap backing arrays zero, having cleared exactly the entries of the
// jobs its predecessor held (none when the array grows) and no more bitmap
// words than the previous indexed schedule opened. Every schedule must equal a cold Scratch's: assignment, machine
// count, cost bits and work counts.
func checkScratchRecycle(t *testing.T, tc recycleCase) recycleReach {
	t.Helper()
	r := rand.New(rand.NewSource(tc.seed))
	sc := new(Scratch)
	var reach recycleReach
	held := 0 // jobs on the live schedule's machines
	for k, mult := range recycleSizes {
		n := tc.base * mult
		// Odd steps crowd every job into a short window at g = 1, so the
		// schedule opens more than 64 machines, several bitmap columns.
		g, window := 1+r.Intn(4), float64(n)/4
		if k%2 == 1 {
			g, window = 1, 4
		}
		ivs := make([]interval.Interval, n)
		for i := range ivs {
			s := r.Float64() * window
			ivs[i] = interval.New(s, s+r.Float64()*15)
		}
		in := NewInstance(g, ivs...)
		for i := range in.Jobs {
			in.Jobs[i].Demand = 1 + r.Intn(g)
		}
		if tc.buckets > 0 {
			in.axis = unsafe.Pointer(buildInstanceAxis(in, tc.buckets))
		}
		reach.stride = max(reach.stride, in.TimeAxis().stride)
		rule := Rule((tc.rule + k) % 3)
		order := in.LengthOrder()
		if rule == NextFit {
			order = in.StartOrder()
		}
		order = order[:max(1, n*tc.prefix/256)]
		at := func(what string) string {
			return fmt.Sprintf("seed %d step %d (n %d, rule %d, %d placed): %s", tc.seed, k, n, rule, len(order), what)
		}

		// A reset that grows the assignment array fills the new one instead.
		if cap(sc.assign) < n {
			held = 0
		}
		e0, w0 := sc.clearedEntries, sc.clearedWords
		opened := sc.index.words * (sc.index.nb + 2*sc.index.ng)
		s := sc.NewSchedule(in)
		checkRecycled(t, sc, true, at("new schedule"))
		if got := sc.clearedEntries - e0; got != held {
			t.Fatalf("%s: reset cleared %d assignment entries; its predecessor held %d jobs", at("new schedule"), got, held)
		}
		if got := sc.clearedWords - w0; got > opened {
			t.Fatalf("%s: reset cleared %d bitmap words; its predecessor opened %d", at("new schedule"), got, opened)
		}
		s.ApplyOrder(rule, order)
		cold := new(Scratch).NewSchedule(in)
		cold.ApplyOrder(rule, order)
		for j := range in.Jobs {
			if s.MachineOf(j) != cold.MachineOf(j) {
				t.Fatalf("%s: job %d on machine %d, cold scratch %d", at("placed"), j, s.MachineOf(j), cold.MachineOf(j))
			}
		}
		if s.NumMachines() != cold.NumMachines() || math.Float64bits(s.Cost()) != math.Float64bits(cold.Cost()) || s.Work() != cold.Work() {
			t.Fatalf("%s: %d machines, cost %v, work %+v; cold scratch %d, %v, %+v", at("placed"),
				s.NumMachines(), s.Cost(), s.Work(), cold.NumMachines(), cold.Cost(), cold.Work())
		}
		held = len(order)
		reach.machines = max(reach.machines, s.NumMachines())
		if k%2 == 1 {
			continue
		}
		e0 = sc.clearedEntries
		a := BeginAssembly(in, sc, cold.NumMachines())
		checkRecycled(t, sc, false, at("assembly"))
		if got := sc.clearedEntries - e0; got != held {
			t.Fatalf("%s: reset cleared %d assignment entries; its predecessor held %d jobs", at("assembly"), got, held)
		}
		for _, j := range order {
			a.PutDelta(int(j), cold.MachineOf(int(j)), 0)
		}
		a.Finish()
	}
	return reach
}

// checkRecycled fails unless every entry of sc's assignment backing array
// reads Unassigned and, with bitmap, every word of its bitmap backing
// arrays (raw, group-full and summary) reads zero: the state a reset must
// leave past the schedule it starts.
func checkRecycled(t *testing.T, sc *Scratch, bitmap bool, at string) {
	t.Helper()
	for j, m := range sc.assign[:cap(sc.assign)] {
		if m != Unassigned {
			t.Fatalf("%s: assignment entry %d reads %d after the reset", at, j, m)
		}
	}
	if !bitmap {
		return
	}
	for _, level := range []struct {
		name  string
		words []uint64
	}{{"raw", sc.index.mask}, {"group-full", sc.index.full}, {"summary", sc.index.sum}} {
		for i, x := range level.words[:cap(level.words)] {
			if x != 0 {
				t.Fatalf("%s: %s bitmap word %d reads %#x after the reset", at, level.name, i, x)
			}
		}
	}
}
