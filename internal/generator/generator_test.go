package generator

import (
	"math"
	"testing"
	"testing/quick"

	"busytime/internal/core"
)

func TestGeneralDeterministicAndValid(t *testing.T) {
	a := General(3, 20, 2, 50, 10)
	b := General(3, 20, 2, 50, 10)
	if a.N() != 20 || a.G != 2 {
		t.Fatalf("bad shape: %+v", a)
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatal("same seed produced different instances")
		}
	}
	if err := a.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	c := General(4, 20, 2, 50, 10)
	same := true
	for i := range a.Jobs {
		if a.Jobs[i] != c.Jobs[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical instances")
	}
}

func TestProperIsProper(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		in := Proper(seed, int(nn%50)+1, 3, 40, 12)
		return in.IsProper() && in.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCliqueIsClique(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		in := Clique(seed, int(nn%50)+1, 3, 10, 5)
		return in.IsClique() && in.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoundedLengthRespectsBounds(t *testing.T) {
	const d = 5.0
	in := BoundedLength(9, 100, 3, 8, d)
	for _, j := range in.Jobs {
		if j.Len() < 1-1e-9 || j.Len() > d+1e-9 {
			t.Errorf("job %d length %v outside [1,%v]", j.ID, j.Len(), d)
		}
		if j.Iv.Start != math.Trunc(j.Iv.Start) {
			t.Errorf("job %d start %v not integral", j.ID, j.Iv.Start)
		}
	}
}

func TestWithDemands(t *testing.T) {
	base := General(1, 30, 4, 20, 6)
	in := WithDemands(base, 2, 3)
	if err := in.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	seenAbove1 := false
	for _, j := range in.Jobs {
		if j.Demand < 1 || j.Demand > 3 {
			t.Errorf("demand %d outside [1,3]", j.Demand)
		}
		if j.Demand > 1 {
			seenAbove1 = true
		}
	}
	if !seenAbove1 {
		t.Error("no demand above 1 generated")
	}
	// Original untouched.
	for _, j := range base.Jobs {
		if j.Demand != 1 {
			t.Fatal("WithDemands mutated its input")
		}
	}
	// Clamps to g.
	clamped := WithDemands(base, 2, 99)
	for _, j := range clamped.Jobs {
		if j.Demand > base.G {
			t.Errorf("demand %d exceeds g", j.Demand)
		}
	}
}

func TestFig4Structure(t *testing.T) {
	const g = 3
	const eps = 0.125
	in, order := Fig4(g, eps)
	if in.N() != g+g*(g-1)+g {
		t.Fatalf("N = %d, want %d", in.N(), g*(g+1))
	}
	if len(order) != in.N() {
		t.Fatalf("order covers %d of %d jobs", len(order), in.N())
	}
	seen := map[int32]bool{}
	for _, j := range order {
		if seen[j] {
			t.Fatal("order repeats a job")
		}
		seen[j] = true
	}
	// All jobs have length 1, so any order is a valid FirstFit length order.
	for _, j := range in.Jobs {
		if math.Abs(j.Len()-1) > 1e-12 {
			t.Errorf("job %d length %v, want 1", j.ID, j.Len())
		}
	}
	// The known optimum is g+1 (lefts on one machine, rights on one,
	// middles g-per-machine). Verify such a schedule exists and is feasible.
	s := core.NewSchedule(in)
	mLeft, mRight := s.OpenMachine(), s.OpenMachine()
	midMachines := make([]int, g-1)
	for i := range midMachines {
		midMachines[i] = s.OpenMachine()
	}
	midCount := 0
	for j, job := range in.Jobs {
		switch {
		case job.Iv.Start == 0:
			s.Assign(j, mLeft)
		case job.Iv.Start == 2-2*eps:
			s.Assign(j, mRight)
		default:
			s.Assign(j, midMachines[midCount/g])
			midCount++
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("witness schedule infeasible: %v", err)
	}
	if math.Abs(s.Cost()-float64(g+1)) > 1e-9 {
		t.Errorf("witness cost %v, want %d", s.Cost(), g+1)
	}
}

func TestFig4Panics(t *testing.T) {
	for _, tc := range []struct {
		g   int
		eps float64
	}{{1, 0.1}, {3, 0}, {3, 0.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Fig4(%d,%v) did not panic", tc.g, tc.eps)
				}
			}()
			Fig4(tc.g, tc.eps)
		}()
	}
}

func TestFig4ProperIsProper(t *testing.T) {
	in, order := Fig4Proper(4, 0.1, 1e-4)
	if !in.IsProper() {
		t.Error("Fig4Proper instance not proper")
	}
	if len(order) != in.N() {
		t.Error("order incomplete")
	}
}

func TestFig4ProperPanicsOnBadDelta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized delta accepted")
		}
	}()
	Fig4Proper(4, 0.1, 0.1) // g(g-1)·delta = 1.2 ≥ ε′
}
