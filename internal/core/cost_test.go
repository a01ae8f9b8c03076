package core

import (
	"math"
	"testing"

	"busytime/internal/interval"
)

// denseTestInstance builds a deterministic instance without importing the
// generator (which would cycle).
func denseTestInstance(n, g int, horizon, maxLen float64) *Instance {
	state := uint64(12345)
	next := func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64((z^(z>>31))>>11) / (1 << 53)
	}
	ivs := make([]interval.Interval, n)
	for i := range ivs {
		s := next() * horizon
		ivs[i] = interval.New(s, s+next()*maxLen)
	}
	return NewInstance(g, ivs...)
}

func firstFitAll(in *Instance) *Schedule {
	s := NewSchedule(in)
	s.ApplyOrder(LowestFit, indexOrder(in.N()))
	return s
}

// TestCostMatchesMachineSets cross-checks the incremental busy-time totals
// against the from-scratch interval-set derivation.
func TestCostMatchesMachineSets(t *testing.T) {
	in := denseTestInstance(500, 3, 300, 12)
	s := firstFitAll(in)
	var want float64
	for m := 0; m < s.NumMachines(); m++ {
		span := s.MachineSet(m).Span()
		want += span
		if got := s.MachineBusy(m); math.Abs(got-span) > 1e-9 {
			t.Fatalf("machine %d busy %v, set says %v", m, got, span)
		}
	}
	if got := s.Cost(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Cost %v, machine sets say %v", got, want)
	}
}

// TestSummaryUsesIncrementalSpans checks Summary against the interval-set
// union it used to re-derive per machine.
func TestSummaryUsesIncrementalSpans(t *testing.T) {
	in := denseTestInstance(300, 4, 150, 10)
	s := firstFitAll(in)
	for _, ms := range s.Summary() {
		union := s.MachineSet(ms.Machine).Union()
		if len(ms.Busy) != len(union) {
			t.Fatalf("machine %d: %d busy pieces, union has %d", ms.Machine, len(ms.Busy), len(union))
		}
		for i := range union {
			if ms.Busy[i] != union[i] {
				t.Fatalf("machine %d piece %d: %v vs %v", ms.Machine, i, ms.Busy[i], union[i])
			}
		}
		if math.Abs(ms.Cost-union.TotalLen()) > 1e-9 {
			t.Fatalf("machine %d cost %v vs %v", ms.Machine, ms.Cost, union.TotalLen())
		}
	}
}

// TestCostIsAllocationFree asserts the acceptance criterion of the
// incremental accounting: after assignment, Cost, MachineBusy and the span
// delta BestFit ranks machines by are reads that never rebuild interval
// sets (zero allocations).
func TestCostIsAllocationFree(t *testing.T) {
	in := denseTestInstance(2000, 4, 1000, 25)
	s := firstFitAll(in)
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() {
		sink += s.Cost()
		sink += s.MachineBusy(0)
		sink += s.machines[0].spans.Delta(in.Jobs[0].Iv)
	}); allocs != 0 {
		t.Fatalf("Cost/MachineBusy/span delta allocated %v times per read", allocs)
	}
	_ = sink
}

// BenchmarkScheduleCost demonstrates the O(1) read: b.N Cost calls on a
// finished 10k-job schedule, with the allocation counter asserting that no
// interval set is ever rebuilt.
func BenchmarkScheduleCost(b *testing.B) {
	in := denseTestInstance(10000, 4, 5000, 25)
	s := firstFitAll(in)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Cost()
	}
	_ = sink
}
