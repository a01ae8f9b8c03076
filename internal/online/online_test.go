package online

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"busytime/internal/algo"
	"busytime/internal/algo/exact"
	"busytime/internal/algo/firstfit"
	"busytime/internal/core"
	"busytime/internal/generator"
	"busytime/internal/interval"
)

func iv(s, e float64) interval.Interval { return interval.New(s, e) }

// replay returns the registered online replay row of the given name as a
// schedule function on sc. The online rows accept every valid instance, so
// an error panics.
func replay(name string) func(*core.Instance, *core.Scratch) *core.Schedule {
	a, ok := algo.Lookup(name)
	if !ok {
		panic(name + " not registered")
	}
	return func(in *core.Instance, sc *core.Scratch) *core.Schedule {
		s, err := a.Run(context.Background(), in, sc)
		if err != nil {
			panic(err)
		}
		return s
	}
}

func TestPoliciesFeasibleOnRandom(t *testing.T) {
	for _, r := range rows {
		run := replay(r.Name)
		t.Run(r.Name, func(t *testing.T) {
			f := func(seed int64, nn, gg uint8) bool {
				in := generator.General(seed, int(nn%30)+1, int(gg%4)+1, 40, 12)
				s := run(in, new(core.Scratch))
				return s.Verify() == nil && s.Complete() && s.Cost() >= core.BestBound(in)-1e-9
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestOnlineFirstFitKnownPlacement(t *testing.T) {
	// Arrivals: [0,2], [1,3], [1.5,4] with g=2. Third job overflows M0.
	in := core.NewInstance(2, iv(0, 2), iv(1, 3), iv(1.5, 4))
	s := replay("online-firstfit")(in, new(core.Scratch))
	if s.MachineOf(0) != 0 || s.MachineOf(1) != 0 || s.MachineOf(2) != 1 {
		t.Errorf("placements: %d %d %d", s.MachineOf(0), s.MachineOf(1), s.MachineOf(2))
	}
}

func TestOnlineBestFitPrefersCheapMachine(t *testing.T) {
	// g=2. Arrivals: two copies of [0,4] fill M0; [3,7] overflows M0's
	// capacity on [3,4] and opens M1. Arrival [5,8]: M0 is feasible at
	// growth 3 (disjoint), M1 is feasible at growth 1 ([3,7]∪[5,8]=[3,8]).
	// BestFit must choose M1; FirstFit would have chosen M0.
	in := core.NewInstance(2, iv(0, 4), iv(0, 4), iv(3, 7), iv(5, 8))
	s := replay("online-bestfit")(in, new(core.Scratch))
	if s.MachineOf(3) != s.MachineOf(2) {
		t.Errorf("BestFit placed [5,8] on machine %d, want machine of [3,7] (%d)",
			s.MachineOf(3), s.MachineOf(2))
	}
	ff := replay("online-firstfit")(in, new(core.Scratch))
	if ff.MachineOf(3) != ff.MachineOf(0) {
		t.Errorf("FirstFit placed [5,8] on machine %d, want machine of [0,4] (%d)",
			ff.MachineOf(3), ff.MachineOf(0))
	}
	if s.Cost() >= ff.Cost() {
		t.Errorf("BestFit cost %v not below FirstFit %v on this instance", s.Cost(), ff.Cost())
	}
}

func TestOnlineNextFitAbandons(t *testing.T) {
	// g=1: [0,4] opens M0; [1,2] conflicts → M1; [5,6] fits M1 (current),
	// never returns to M0 even though it also fits.
	in := core.NewInstance(1, iv(0, 4), iv(1, 2), iv(5, 6))
	s := replay("online-nextfit")(in, new(core.Scratch))
	if s.MachineOf(2) != s.MachineOf(1) {
		t.Errorf("NextFit revisited an abandoned machine")
	}
}

func TestOnlineVsOfflineGap(t *testing.T) {
	// Online policies cannot sort by length; measure that they are still
	// within a constant of OPT on random instances, and never below it.
	for seed := int64(0); seed < 15; seed++ {
		in := generator.General(seed, 9, 2, 16, 7)
		opt, err := exact.Cost(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			s := replay(r.Name)(in, new(core.Scratch))
			if s.Cost() < opt-1e-9 {
				t.Fatalf("%s beat OPT", r.Name)
			}
			if s.Cost() > 5*opt {
				t.Errorf("seed %d: %s ratio %v implausibly high", seed, r.Name, s.Cost()/opt)
			}
		}
	}
}

// TestRunScratchMatchesRun is the online leg of the differential contract:
// replaying through a recycled scratch must reproduce fresh runs byte for
// byte, for every online row, across instance shapes.
func TestRunScratchMatchesRun(t *testing.T) {
	sc := new(core.Scratch)
	for seed := int64(0); seed < 12; seed++ {
		in := generator.General(seed, 60+int(seed)*13, 2+int(seed)%4, 50, 14)
		for _, r := range rows {
			a := replay(r.Name)
			fresh := a(in, new(core.Scratch))
			recycled := a(in, sc)
			if fresh.NumMachines() != recycled.NumMachines() || fresh.Cost() != recycled.Cost() {
				t.Fatalf("seed %d %s: fresh (%d machines, cost %v) != scratch (%d machines, cost %v)",
					seed, r.Name, fresh.NumMachines(), fresh.Cost(),
					recycled.NumMachines(), recycled.Cost())
			}
			for j := 0; j < in.N(); j++ {
				if fresh.MachineOf(j) != recycled.MachineOf(j) {
					t.Fatalf("seed %d %s: job %d placement differs", seed, r.Name, j)
				}
			}
		}
	}
}

// TestOnlineFirstFitZeroAllocSteadyState is the online arena gate: after a
// warm-up replay, re-running online FirstFit through a recycled Scratch
// performs zero allocations per run.
func TestOnlineFirstFitZeroAllocSteadyState(t *testing.T) {
	in := generator.General(3, 3000, 4, 1500, 25)
	sc := new(core.Scratch)
	firstFit := replay("online-firstfit")
	run := func() {
		if s := firstFit(in, sc); s.NumMachines() == 0 {
			t.Fatal("empty schedule")
		}
	}
	run() // warm-up sizes the arena and the instance's cached orders
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("warm online FirstFit allocated %v times per run; want 0", allocs)
	}
}

// FuzzOnlineFirstFitWarmScratch drives the online differential check from
// fuzzed shapes, with the scratch arriving warm from a differently-shaped
// instance so no stale state can leak through the recycled arena.
func FuzzOnlineFirstFitWarmScratch(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(3), uint8(20))
	f.Add(int64(99), uint8(200), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, n, g, maxLen uint8) {
		in := generator.General(seed, int(n)+1, int(g)%8+1, float64(n)/2+1, float64(maxLen)+1)
		firstFit := replay("online-firstfit")
		fresh := firstFit(in, new(core.Scratch))
		sc := new(core.Scratch)
		warm := generator.General(seed+1, int(maxLen)+2, int(g)%5+1, float64(g)+2, float64(n)/4+1)
		_ = firstFit(warm, sc)
		recycled := firstFit(in, sc)
		if fresh.NumMachines() != recycled.NumMachines() || fresh.Cost() != recycled.Cost() {
			t.Fatalf("fresh (%d machines, cost %v) != warm scratch (%d machines, cost %v)",
				fresh.NumMachines(), fresh.Cost(), recycled.NumMachines(), recycled.Cost())
		}
		for j := 0; j < in.N(); j++ {
			if fresh.MachineOf(j) != recycled.MachineOf(j) {
				t.Fatalf("job %d placement differs", j)
			}
		}
	})
}

func BenchmarkOnlineFirstFit1k(b *testing.B) {
	in := generator.General(7, 1000, 4, 500, 30)
	firstFit := replay("online-firstfit")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = firstFit(in, new(core.Scratch))
	}
}

func TestLookaheadFullBufferEqualsOfflineFirstFit(t *testing.T) {
	// With k ≥ n the extraction order is the global longest-first order, so
	// the LowestFit rule reproduces the paper's offline FirstFit exactly.
	for seed := int64(0); seed < 20; seed++ {
		in := generator.General(seed, 25, 3, 30, 10)
		got, err := RunLookahead(in, in.N(), core.LowestFit)
		if err != nil {
			t.Fatal(err)
		}
		want := firstfit.Schedule(in)
		if got.Cost() != want.Cost() || got.NumMachines() != want.NumMachines() {
			t.Fatalf("seed %d: lookahead-n %v/%d != offline %v/%d", seed,
				got.Cost(), got.NumMachines(), want.Cost(), want.NumMachines())
		}
		for j := 0; j < in.N(); j++ {
			if got.MachineOf(j) != want.MachineOf(j) {
				t.Fatalf("seed %d: job %d placement differs", seed, j)
			}
		}
	}
}

func TestLookaheadOneEqualsArrivalOrder(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		in := generator.General(seed, 20, 3, 25, 8)
		got, err := RunLookahead(in, 1, core.LowestFit)
		if err != nil {
			t.Fatal(err)
		}
		want := replay("online-firstfit")(in, new(core.Scratch))
		if got.Cost() != want.Cost() {
			t.Fatalf("seed %d: k=1 cost %v != pure online %v", seed, got.Cost(), want.Cost())
		}
	}
}

// quadraticLookaheadOrder is the reference buffer: after every refill it
// scans the whole buffer for the longest job (ties by start, end, ID) and
// splices it out, O(n·min(k, n)).
func quadraticLookaheadOrder(in *core.Instance, k int) []int32 {
	arrivals := in.StartOrder()
	order := make([]int32, 0, len(arrivals))
	buffer := make([]int32, 0, min(k, len(arrivals)))
	next := 0
	fill := func() {
		for len(buffer) < k && next < len(arrivals) {
			buffer = append(buffer, arrivals[next])
			next++
		}
	}
	longest := func() int {
		best := 0
		for i := 1; i < len(buffer); i++ {
			ji, jb := in.Jobs[buffer[i]], in.Jobs[buffer[best]]
			switch {
			case ji.Len() != jb.Len():
				if ji.Len() > jb.Len() {
					best = i
				}
			case ji.Iv.Start != jb.Iv.Start:
				if ji.Iv.Start < jb.Iv.Start {
					best = i
				}
			case ji.Iv.End != jb.Iv.End:
				if ji.Iv.End < jb.Iv.End {
					best = i
				}
			case ji.ID < jb.ID:
				best = i
			}
		}
		return best
	}
	for fill(); len(buffer) > 0; fill() {
		i := longest()
		order = append(order, buffer[i])
		buffer = append(buffer[:i], buffer[i+1:]...)
	}
	return order
}

// TestLookaheadOrderMatchesQuadratic pins the heap buffer against the
// quadratic reference scan for buffer sizes from 1 to unbounded, on random
// instances with integer endpoints, so lengths and starts tie often and the
// end and ID tie-breaks decide.
func TestLookaheadOrderMatchesQuadratic(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(60)
		in := &core.Instance{Name: "ties", G: 2}
		for i := 0; i < n; i++ {
			start := float64(r.Intn(6))
			in.Jobs = append(in.Jobs, core.Job{ID: r.Intn(1000)*n + i, Iv: iv(start, start+float64(r.Intn(4))), Demand: 1})
		}
		for _, k := range []int{1, 2, 7, n - 1, n, math.MaxInt} {
			if k < 1 {
				continue
			}
			got, want := lookaheadOrder(in, k), quadraticLookaheadOrder(in, k)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d n=%d k=%d: heap order %v, reference %v", trial, n, k, got, want)
			}
		}
	}
}

func TestLookaheadRejectsBadK(t *testing.T) {
	in := core.NewInstance(2, iv(0, 1))
	if _, err := RunLookahead(in, 0, core.LowestFit); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestLookaheadFeasibleAcrossK(t *testing.T) {
	in := generator.General(9, 30, 3, 30, 10)
	for _, k := range []int{1, 2, 5, 10, 30} {
		s, err := RunLookahead(in, k, core.BestFit)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}
