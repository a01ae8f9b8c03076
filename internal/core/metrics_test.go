package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"busytime/internal/interval"
)

func TestUtilizationPerfectPacking(t *testing.T) {
	// Two jobs exactly stacked, g = 2: utilization 1.
	in := NewInstance(2, iv(0, 4), iv(0, 4))
	s := NewSchedule(in)
	m := openFor(s, 0)
	s.Assign(1, m)
	if got := s.Utilization(); math.Abs(got-1) > 1e-12 {
		t.Errorf("Utilization = %v, want 1", got)
	}
	if got := s.MachineUtilization(m); math.Abs(got-1) > 1e-12 {
		t.Errorf("MachineUtilization = %v, want 1", got)
	}
	if got := s.IdleCapacity(); got != 0 {
		t.Errorf("IdleCapacity = %v, want 0", got)
	}
}

func TestUtilizationHalf(t *testing.T) {
	// One unit job alone on a g=2 machine: half the capacity is idle.
	in := NewInstance(2, iv(0, 4))
	s := NewSchedule(in)
	openFor(s, 0)
	if got := s.Utilization(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
	if got := s.IdleCapacity(); got != 4 {
		t.Errorf("IdleCapacity = %v, want 4", got)
	}
}

func TestUtilizationDemandWeighted(t *testing.T) {
	in := NewInstance(3, iv(0, 2))
	in.Jobs[0].Demand = 3
	s := NewSchedule(in)
	openFor(s, 0)
	if got := s.Utilization(); math.Abs(got-1) > 1e-12 {
		t.Errorf("demand-3 job on g=3 machine: utilization %v, want 1", got)
	}
}

func TestUtilizationEmpty(t *testing.T) {
	s := NewSchedule(NewInstance(2))
	if s.Utilization() != 0 || s.IdleCapacity() != 0 {
		t.Error("empty schedule metrics nonzero")
	}
}

func TestQuickUtilizationIdentities(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nn%16) + 1
		ivs := make([]interval.Interval, n)
		for i := range ivs {
			st := r.Float64() * 30
			ivs[i] = interval.New(st, st+0.5+r.Float64()*8)
		}
		in := NewInstance(3, ivs...)
		s := NewSchedule(in)
		s.ApplyOrder(LowestFit, indexOrder(n))
		u := s.Utilization()
		if u < 0 || u > 1+1e-9 {
			return false
		}
		// Utilization == ParallelismBound / Cost.
		if math.Abs(u-ParallelismBound(in)/s.Cost()) > 1e-9 {
			return false
		}
		// IdleCapacity consistent with utilization.
		return math.Abs(s.IdleCapacity()-(1-u)*float64(in.G)*s.Cost()) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
