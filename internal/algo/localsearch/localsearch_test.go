package localsearch

import (
	"testing"
	"testing/quick"

	"busytime/internal/algo/baselines"
	"busytime/internal/algo/exact"
	"busytime/internal/algo/firstfit"
	"busytime/internal/algo/properfit"
	"busytime/internal/core"
	"busytime/internal/generator"
	"busytime/internal/interval"
)

func iv(s, e float64) interval.Interval { return interval.New(s, e) }

func TestNeverWorseAndFeasible(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		in := generator.General(seed, 25, 3, 30, 10)
		base := firstfit.Schedule(in)
		improved, err := Improve(base, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := improved.Verify(); err != nil {
			t.Fatalf("seed %d: infeasible after improvement: %v", seed, err)
		}
		if improved.Cost() > base.Cost()+1e-9 {
			t.Errorf("seed %d: cost grew %v → %v", seed, base.Cost(), improved.Cost())
		}
	}
}

func TestImprovesBadSchedule(t *testing.T) {
	// NextFit in arrival order is easy to improve: two distant singleton
	// jobs end up on separate machines even though merging is free.
	in := core.NewInstance(2, iv(0, 2), iv(1, 3), iv(10, 12), iv(11, 13))
	bad := core.NewSchedule(in)
	for j := range in.Jobs {
		bad.AssignNew(j) // one machine per job: cost 8
	}
	improved, err := Improve(bad, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: two machines ([0,3] and [10,13]) = 6.
	if improved.Cost() > 6+1e-9 {
		t.Errorf("cost = %v, want ≤ 6", improved.Cost())
	}
	if improved.NumMachines() != 2 {
		t.Errorf("machines = %d, want 2", improved.NumMachines())
	}
}

func TestRespectsCapacityDuringMerge(t *testing.T) {
	// Three pairwise overlapping jobs, g=2: no pair of machines holding
	// {2,1} may merge.
	in := core.NewInstance(2, iv(0, 10), iv(1, 9), iv(2, 8))
	s := firstfit.Schedule(in)
	improved, err := Improve(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := improved.Verify(); err != nil {
		t.Fatalf("capacity violated: %v", err)
	}
	if improved.NumMachines() < 2 {
		t.Error("merged beyond capacity")
	}
}

func TestReachesOptimumOnEasyCases(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		in := generator.General(seed, 8, 2, 15, 6)
		opt, err := exact.Cost(in)
		if err != nil {
			t.Fatal(err)
		}
		improved, err := Improve(properfit.Schedule(in), Options{}) // NextFit in start order
		if err != nil {
			t.Fatal(err)
		}
		if improved.Cost() < opt-1e-9 {
			t.Fatalf("seed %d: improved below OPT — %v < %v", seed, improved.Cost(), opt)
		}
	}
}

func TestQuickInvariants(t *testing.T) {
	f := func(seed int64, nn, gg uint8) bool {
		in := generator.General(seed, int(nn%20)+1, int(gg%3)+1, 25, 8)
		base := baselines.RandomFit(in, seed)
		improved, err := Improve(base, Options{MaxRounds: 5})
		if err != nil {
			return false
		}
		if improved.Verify() != nil {
			return false
		}
		if improved.Cost() > base.Cost()+1e-9 {
			return false
		}
		return improved.Cost() >= core.BestBound(in)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDemandsPreserved(t *testing.T) {
	base := generator.General(3, 15, 4, 20, 8)
	in := generator.WithDemands(base, 4, 4)
	s := firstfit.Schedule(in)
	improved, err := Improve(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := improved.Verify(); err != nil {
		t.Fatalf("demand capacity violated: %v", err)
	}
}

func TestEmptySchedule(t *testing.T) {
	s := core.NewSchedule(core.NewInstance(2))
	improved, err := Improve(s, Options{})
	if err != nil || improved.Cost() != 0 {
		t.Errorf("empty: %v cost=%v", err, improved.Cost())
	}
}

func BenchmarkImprove100(b *testing.B) {
	in := generator.General(7, 100, 3, 80, 15)
	s := firstfit.Schedule(in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Improve(s, Options{MaxRounds: 5}); err != nil {
			b.Fatal(err)
		}
	}
}
