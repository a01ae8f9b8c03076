package exact

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"busytime/internal/algo"
	"busytime/internal/algo/firstfit"
	"busytime/internal/core"
	"busytime/internal/generator"
	"busytime/internal/interval"
)

func iv(s, e float64) interval.Interval { return interval.New(s, e) }

func TestRegistered(t *testing.T) {
	if _, ok := algo.Lookup("exact"); !ok {
		t.Fatal("exact not registered")
	}
}

func TestEmptyAndSingle(t *testing.T) {
	s, err := Solve(core.NewInstance(2))
	if err != nil || s.Cost() != 0 {
		t.Errorf("empty: %v cost=%v", err, s.Cost())
	}
	s, err = Solve(core.NewInstance(1, iv(3, 7)))
	if err != nil || s.Cost() != 4 {
		t.Errorf("single: %v cost=%v", err, s.Cost())
	}
}

func TestKnownOptimum(t *testing.T) {
	// Fig. 4 with g = 2, ε′ = 0.1: OPT = g+1 = 3.
	in, _ := generator.Fig4(2, 0.1)
	s, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if math.Abs(s.Cost()-3) > 1e-9 {
		t.Errorf("OPT = %v, want 3", s.Cost())
	}
}

func TestDisjointJobsOneMachine(t *testing.T) {
	in := core.NewInstance(1, iv(0, 1), iv(2, 3), iv(5, 8))
	c, err := Cost(in)
	if err != nil {
		t.Fatal(err)
	}
	if c != 5 {
		t.Errorf("OPT = %v, want 5 (total length, one machine)", c)
	}
}

func TestOverlappingPairGOne(t *testing.T) {
	// g=1: two overlapping jobs must split; OPT = sum of lengths.
	in := core.NewInstance(1, iv(0, 3), iv(1, 4))
	c, err := Cost(in)
	if err != nil {
		t.Fatal(err)
	}
	if c != 6 {
		t.Errorf("OPT = %v, want 6", c)
	}
}

func TestGTwoSharesMachine(t *testing.T) {
	in := core.NewInstance(2, iv(0, 3), iv(1, 4))
	c, err := Cost(in)
	if err != nil {
		t.Fatal(err)
	}
	if c != 4 {
		t.Errorf("OPT = %v, want 4 (span, one machine)", c)
	}
}

func TestComponentLimit(t *testing.T) {
	// 25 mutually overlapping jobs exceed the component limit.
	ivs := make([]interval.Interval, 25)
	for i := range ivs {
		ivs[i] = iv(0, 10)
	}
	if _, err := SolveMax(core.NewInstance(3, ivs...), 10); err == nil {
		t.Error("oversized component accepted")
	}
	// But 25 disjoint jobs decompose into 25 singleton components: fine.
	for i := range ivs {
		ivs[i] = iv(float64(3*i), float64(3*i+1))
	}
	if _, err := SolveMax(core.NewInstance(3, ivs...), 10); err != nil {
		t.Errorf("disjoint jobs rejected: %v", err)
	}
}

func TestBruteForceAgreement(t *testing.T) {
	// Compare against exhaustive set-partition enumeration on tiny cases.
	for seed := int64(0); seed < 50; seed++ {
		in := generator.General(seed, 6, 2, 12, 6)
		want := bruteForce(in)
		got, err := Cost(in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("seed %d: exact %v != brute %v", seed, got, want)
		}
	}
}

// bruteForce enumerates every assignment in restricted-growth form.
func bruteForce(in *core.Instance) float64 {
	n := in.N()
	assign := make([]int, n)
	best := math.Inf(1)
	var rec func(i, used int)
	rec = func(i, used int) {
		if i == n {
			cost, ok := costOf(in, assign, used)
			if ok && cost < best {
				best = cost
			}
			return
		}
		for m := 0; m <= used; m++ {
			assign[i] = m
			nu := used
			if m == used {
				nu++
			}
			rec(i+1, nu)
		}
	}
	rec(0, 0)
	return best
}

func costOf(in *core.Instance, assign []int, used int) (float64, bool) {
	var total float64
	for m := 0; m < used; m++ {
		var set interval.Set
		var jobs []int
		for j, mm := range assign {
			if mm == m {
				set = append(set, in.Jobs[j].Iv)
				jobs = append(jobs, j)
			}
		}
		if set.MaxDepth() > in.G {
			return 0, false
		}
		_ = jobs
		total += set.Span()
	}
	return total, true
}

func TestQuickOptAtMostFirstFit(t *testing.T) {
	f := func(seed int64, gg uint8) bool {
		g := int(gg%3) + 1
		in := generator.General(seed, 8, g, 20, 8)
		opt, err := Cost(in)
		if err != nil {
			return false
		}
		ff := firstfit.Schedule(in).Cost()
		lb := core.BestBound(in)
		return opt <= ff+1e-9 && opt >= lb-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickOptimalIsFeasible(t *testing.T) {
	f := func(seed int64) bool {
		in := generator.General(seed, 9, 2, 25, 9)
		s, err := Solve(in)
		if err != nil {
			return false
		}
		return s.Verify() == nil && s.Complete()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDemandsExact(t *testing.T) {
	// Two overlapping demand-2 jobs with g = 2 cannot share: OPT = 6.
	in := core.NewInstance(2, iv(0, 3), iv(1, 4))
	in.Jobs[0].Demand = 2
	in.Jobs[1].Demand = 2
	c, err := Cost(in)
	if err != nil {
		t.Fatal(err)
	}
	if c != 6 {
		t.Errorf("OPT = %v, want 6", c)
	}
}

func TestSubtract(t *testing.T) {
	covered := interval.Set{iv(1, 2), iv(4, 6)}
	got := subtract(nil, iv(0, 7), 3, covered)
	want := []event{{0, 3}, {1, -3}, {2, 3}, {4, -3}, {6, 3}, {7, -3}}
	if !slices.Equal(got, want) {
		t.Fatalf("subtract = %v, want the events of [0,1], [2,4] and [6,7]: %v", got, want)
	}
	if evs := subtract(got[:0], iv(1, 2), 1, interval.Set{iv(0, 5)}); len(evs) != 0 {
		t.Errorf("fully covered interval left %v", evs)
	}
	if evs := subtract(got[:2], iv(1, 2), 1, nil); !slices.Equal(evs, []event{{0, 3}, {1, -3}, {1, 1}, {2, -1}}) {
		t.Errorf("uncovered interval appended %v", evs[2:])
	}
}

func BenchmarkExact10Jobs(b *testing.B) {
	in := generator.General(3, 10, 2, 20, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(in); err != nil {
			b.Fatal(err)
		}
	}
}
