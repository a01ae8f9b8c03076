package firstfit

import (
	"math"
	"testing"
	"testing/quick"

	"busytime/internal/algo"
	"busytime/internal/core"
	"busytime/internal/generator"
	"busytime/internal/interval"
)

func iv(s, e float64) interval.Interval { return interval.New(s, e) }

func TestRegistered(t *testing.T) {
	a, ok := algo.Lookup("firstfit")
	if !ok {
		t.Fatal("firstfit not registered")
	}
	if a.Run == nil || a.Name != "firstfit" {
		t.Fatalf("bad registration: %+v", a)
	}
}

func TestEmptyInstance(t *testing.T) {
	s := Schedule(core.NewInstance(2))
	if s.NumMachines() != 0 || s.Cost() != 0 {
		t.Error("empty instance should yield empty schedule")
	}
	if err := s.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestSingleMachinePacking(t *testing.T) {
	// Three pairwise disjoint jobs: all fit on one machine even with g=1.
	in := core.NewInstance(1, iv(0, 1), iv(2, 3), iv(4, 5))
	s := Schedule(in)
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if s.NumMachines() != 1 {
		t.Errorf("machines = %d, want 1", s.NumMachines())
	}
	if s.Cost() != 3 {
		t.Errorf("cost = %v, want 3", s.Cost())
	}
}

func TestLongestFirstOrder(t *testing.T) {
	// With g=1: the long job [0,10] is placed first on M0; the two short
	// jobs both conflict with it but are mutually disjoint, so they share M1.
	in := core.NewInstance(1, iv(2, 3), iv(0, 10), iv(5, 6))
	s := Schedule(in)
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got := s.MachineOf(1); got != 0 {
		t.Errorf("longest job on machine %d, want 0", got)
	}
	if s.NumMachines() != 2 {
		t.Errorf("machines = %d, want 2", s.NumMachines())
	}
	if s.Cost() != 12 {
		t.Errorf("cost = %v, want 12", s.Cost())
	}
}

func TestCapacityRespected(t *testing.T) {
	// Four identical jobs, g = 2 → exactly two machines.
	in := core.NewInstance(2, iv(0, 1), iv(0, 1), iv(0, 1), iv(0, 1))
	s := Schedule(in)
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if s.NumMachines() != 2 {
		t.Errorf("machines = %d, want 2", s.NumMachines())
	}
	if s.Cost() != 2 {
		t.Errorf("cost = %v, want 2", s.Cost())
	}
}

func TestScheduleOrderAdversarialFig4(t *testing.T) {
	// Theorem 2.4: under the adversarial order FirstFit pays g(3−2ε′) while
	// OPT = g+1.
	const g = 4
	const eps = 0.1
	in, order := generator.Fig4(g, eps)
	s := ScheduleOrder(in, order)
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	want := float64(g) * (3 - 2*eps)
	if math.Abs(s.Cost()-want) > 1e-9 {
		t.Errorf("adversarial cost = %v, want %v", s.Cost(), want)
	}
	if s.NumMachines() != g {
		t.Errorf("machines = %d, want %d", s.NumMachines(), g)
	}
	// Every machine spans the whole construction.
	for m := 0; m < s.NumMachines(); m++ {
		if math.Abs(s.MachineBusy(m)-(3-2*eps)) > 1e-9 {
			t.Errorf("machine %d busy %v, want %v", m, s.MachineBusy(m), 3-2*eps)
		}
	}
}

func TestQuickFeasibleAndWithinFourTimesBound(t *testing.T) {
	f := func(seed int64, nn, gg uint8) bool {
		n := int(nn%40) + 1
		g := int(gg%4) + 1
		in := generator.General(seed, n, g, 50, 15)
		s := Schedule(in)
		if err := s.Verify(); err != nil {
			return false
		}
		lb := core.BestBound(in)
		if lb == 0 {
			return s.Cost() == 0
		}
		// Theorem 2.1 gives cost ≤ 4·OPT; OPT ≥ lb is all we can check fast.
		// The tight ratio test against exact OPT lives in the exact package.
		return s.Cost() >= lb-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickOrderPermutationStillFeasible(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%20) + 1
		in := generator.General(seed, n, 3, 40, 10)
		order := make([]int32, n)
		for i := range order {
			order[i] = int32(n - 1 - i) // arbitrary fixed permutation
		}
		s := ScheduleOrder(in, order)
		return s.Verify() == nil && s.Complete()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDemandAwareFirstFit(t *testing.T) {
	in := core.NewInstance(3, iv(0, 4), iv(1, 3), iv(2, 5))
	in.Jobs[0].Demand = 2
	in.Jobs[1].Demand = 2
	s := Schedule(in)
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Job 0 (demand 2) and job 1 (demand 2) overlap: cannot share with g=3.
	if s.MachineOf(0) == s.MachineOf(1) {
		t.Error("two demand-2 jobs share a machine with g=3")
	}
}

func BenchmarkFirstFit1k(b *testing.B) {
	in := generator.General(7, 1000, 4, 500, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Schedule(in)
	}
}
