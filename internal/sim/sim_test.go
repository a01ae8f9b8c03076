package sim

import (
	"math"
	"testing"
	"testing/quick"

	"busytime/internal/algo/firstfit"
	"busytime/internal/core"
	"busytime/internal/generator"
	"busytime/internal/interval"
)

func iv(s, e float64) interval.Interval { return interval.New(s, e) }

func TestMeasuredBusyMatchesAnalytic(t *testing.T) {
	in := core.NewInstance(2, iv(0, 2), iv(1, 3), iv(5, 6))
	s := core.NewSchedule(in)
	m := s.OpenMachine()
	s.Assign(0, m)
	s.Assign(1, m)
	s.Assign(2, m)
	rep, err := Replay(s)
	if err != nil {
		t.Fatal(err)
	}
	// Busy: [0,3] ∪ [5,6] = 4.
	if math.Abs(rep.TotalBusy-4) > 1e-12 {
		t.Errorf("TotalBusy = %v, want 4", rep.TotalBusy)
	}
	if rep.Machines[0].Switches != 2 {
		t.Errorf("switches = %d, want 2 (gap at [3,5])", rep.Machines[0].Switches)
	}
	if rep.PeakLoad != 2 {
		t.Errorf("peak = %d, want 2", rep.PeakLoad)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("unexpected violations: %v", rep.Violations)
	}
}

func TestTouchingJobsKeepMachineOn(t *testing.T) {
	in := core.NewInstance(2, iv(0, 1), iv(1, 2))
	s := core.NewSchedule(in)
	m := s.OpenMachine()
	s.Assign(0, m)
	s.Assign(1, m)
	rep, err := Replay(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Machines[0].Switches != 1 {
		t.Errorf("switches = %d, want 1 (no idle gap at touch point)", rep.Machines[0].Switches)
	}
	if rep.TotalBusy != 2 {
		t.Errorf("busy = %v, want 2", rep.TotalBusy)
	}
	// Closed semantics: both jobs active at t=1 → peak 2.
	if rep.PeakLoad != 2 {
		t.Errorf("peak = %d, want 2", rep.PeakLoad)
	}
}

func TestViolationDetected(t *testing.T) {
	in := core.NewInstance(1, iv(0, 2), iv(1, 3))
	s := core.NewSchedule(in)
	m := s.OpenMachine()
	s.Assign(0, m)
	s.Assign(1, m)
	rep, err := Replay(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("overload not detected")
	}
	v := rep.Violations[0]
	if v.Machine != 0 || v.T != 1 || v.Load != 2 {
		t.Errorf("violation = %+v", v)
	}
	if Check(s, 1e-9) == nil {
		t.Error("Check accepted violating schedule")
	}
}

func TestDemandWeightedLoad(t *testing.T) {
	in := core.NewInstance(3, iv(0, 2), iv(1, 3))
	in.Jobs[0].Demand = 2
	s := core.NewSchedule(in)
	m := s.OpenMachine()
	s.Assign(0, m)
	s.Assign(1, m)
	rep, err := Replay(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakLoad != 3 {
		t.Errorf("peak = %d, want 3 (2+1)", rep.PeakLoad)
	}
	if len(rep.Violations) != 0 {
		t.Error("feasible demand schedule flagged")
	}
}

func TestUnassignedJobRejected(t *testing.T) {
	in := core.NewInstance(2, iv(0, 1), iv(2, 3))
	s := core.NewSchedule(in)
	s.Assign(0, s.OpenMachine())
	if _, err := Replay(s); err == nil {
		t.Error("incomplete schedule accepted")
	}
}

func TestEmptySchedule(t *testing.T) {
	s := core.NewSchedule(core.NewInstance(2))
	rep, err := Replay(s)
	if err != nil || rep.TotalBusy != 0 || rep.Events != 0 {
		t.Errorf("empty replay: %+v err=%v", rep, err)
	}
}

func TestQuickSimAgreesWithCost(t *testing.T) {
	f := func(seed int64, nn, gg uint8) bool {
		in := generator.General(seed, int(nn%40)+1, int(gg%4)+1, 50, 12)
		s := firstfit.Schedule(in)
		return Check(s, 1e-6) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickPerMachineBusyMatches(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		in := generator.General(seed, int(nn%25)+1, 3, 30, 10)
		s := firstfit.Schedule(in)
		rep, err := Replay(s)
		if err != nil {
			return false
		}
		for m := range rep.Machines {
			if math.Abs(rep.Machines[m].Busy-s.MachineBusy(m)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkReplay1k(b *testing.B) {
	in := generator.General(7, 1000, 4, 500, 30)
	s := firstfit.Schedule(in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(s); err != nil {
			b.Fatal(err)
		}
	}
}
