package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// placementRun is what one placement run leaves behind: every job's
// machine, every machine's jobs in slot order, the cost bits and the span
// log (nil for schedules in fresh memory, which carry none).
type placementRun struct {
	assign   []int
	machines [][]int
	cost     uint64
	log      []uint64
}

// runPlacements draws a schedule for in from sc (fresh memory when sc is
// nil), lets place fill it and records the result.
func runPlacements(in *Instance, sc *Scratch, place func(*Schedule)) placementRun {
	var s *Schedule
	if sc != nil {
		sc.ArmSpanLog(make([]float64, 0, in.N()))
		s = sc.NewSchedule(in)
	} else {
		s = NewSchedule(in)
	}
	place(s)
	out := placementRun{cost: math.Float64bits(s.Cost())}
	for _, d := range s.EndSpanLog() {
		out.log = append(out.log, math.Float64bits(d))
	}
	for j := range in.Jobs {
		out.assign = append(out.assign, s.MachineOf(j))
	}
	for m := 0; m < s.NumMachines(); m++ {
		out.machines = append(out.machines, slices.Clone(s.MachineJobs(m)))
	}
	return out
}

// diff names the first difference between two runs ("" when equal),
// comparing span logs only when withLog is set.
func (a placementRun) diff(b placementRun, withLog bool) string {
	switch {
	case !slices.Equal(a.assign, b.assign):
		return "assignment"
	case len(a.machines) != len(b.machines):
		return fmt.Sprintf("%d machines vs %d", len(a.machines), len(b.machines))
	case !slices.EqualFunc(a.machines, b.machines, slices.Equal[[]int]):
		return "machine job lists"
	case a.cost != b.cost:
		return fmt.Sprintf("cost %v vs %v", math.Float64frombits(a.cost), math.Float64frombits(b.cost))
	case withLog && !slices.Equal(a.log, b.log):
		return "span log"
	}
	return ""
}

// TestApplyOrderMatchesApply pins ApplyOrder's blocking to placing one job
// at a time. Every record gather builds must equal record(j), the record a
// placement reads when it builds one itself. And for every rule, in fresh
// memory, on a cold arena and on a warm one, and for orders shorter than one
// block, exactly one block, and longer than one block but not a multiple of
// it, ApplyOrder over the whole order must reproduce ApplyOrder called one
// job at a time: assignment, machines (slot order included), cost bits and
// span log.
func TestApplyOrderMatchesApply(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	instances := []*Instance{
		denseTestInstance(3*orderBlock+77, 4, 400, 25),
		randInstance(r, 2*orderBlock+31, 3),
	}
	warm := new(Scratch)
	for _, in := range instances {
		warm.NewSchedule(in).ApplyOrder(BestFit, in.LengthOrder())
	}
	arenas := []struct {
		name string
		sc   *Scratch
	}{{"fresh", nil}, {"cold", nil}, {"warm", warm}}
	for ii, in := range instances {
		full := in.LengthOrder()
		s := new(Scratch).NewSchedule(in)
		for k := 0; k < len(full); k += orderBlock {
			blk := full[k:min(k+orderBlock, len(full))]
			for i, rec := range s.gather(blk) {
				if want := s.record(int(blk[i])); rec != want {
					t.Fatalf("instance %d, job %d: gathered record %+v, record %+v", ii, blk[i], rec, want)
				}
			}
		}
		for _, n := range []int{orderBlock / 3, orderBlock, len(full)} {
			order := full[:n]
			for _, rule := range []Rule{LowestFit, BestFit, NextFit} {
				want := runPlacements(in, new(Scratch), func(s *Schedule) {
					for i := range order {
						s.ApplyOrder(rule, order[i:i+1])
					}
				})
				for _, a := range arenas {
					sc := a.sc
					if a.name == "cold" {
						sc = new(Scratch)
					}
					got := runPlacements(in, sc, func(s *Schedule) { s.ApplyOrder(rule, order) })
					if d := got.diff(want, sc != nil); d != "" {
						t.Errorf("instance %d, %d jobs, rule %d, %s arena: ApplyOrder differs from one job at a time in %s", ii, n, rule, a.name, d)
					}
				}
			}
		}
	}
}

// TestApplyOrderPanics pins ApplyOrder's refusals: a job named twice within
// one block (insert's double-placement panic), a job named twice across
// blocks and a job placed before the call (both refused while its block is
// gathered, before any job of that block is placed), and a sealed schedule.
func TestApplyOrderPanics(t *testing.T) {
	in := denseTestInstance(orderBlock+40, 3, 200, 10)
	order := in.LengthOrder()
	cases := []struct {
		name string
		run  func(s *Schedule)
		// placed is the number of jobs assigned when the panic fires.
		placed int
	}{
		{"twice within a block", func(s *Schedule) {
			s.ApplyOrder(LowestFit, []int32{order[0], order[1], order[0]})
		}, 2},
		{"twice across blocks", func(s *Schedule) {
			s.ApplyOrder(BestFit, append(slices.Clone(order[:orderBlock+3]), order[1]))
		}, orderBlock},
		{"already assigned", func(s *Schedule) {
			s.ApplyOrder(NextFit, order[5:6])
			s.ApplyOrder(NextFit, order)
		}, 1},
	}
	for _, tc := range cases {
		for _, sc := range []*Scratch{nil, new(Scratch)} {
			s := NewScheduleFrom(in, sc)
			msg := mustPanic(t, tc.name, func() { tc.run(s) })
			if !strings.Contains(msg, "already assigned") {
				t.Errorf("%s: panic %q does not name the double placement", tc.name, msg)
			}
			placed := 0
			for j := range in.Jobs {
				if s.MachineOf(j) != Unassigned {
					placed++
				}
			}
			if placed != tc.placed {
				t.Errorf("%s: %d jobs placed when the panic fired, want %d", tc.name, placed, tc.placed)
			}
		}
	}
	asm := BeginAssembly(in, nil, 1)
	for j := range in.Jobs {
		asm.PutDelta(j, 0, 0)
	}
	sealed := asm.Finish()
	if msg := mustPanic(t, "sealed", func() { sealed.ApplyOrder(LowestFit, nil) }); !strings.Contains(msg, "sealed") {
		t.Errorf("sealed: panic %q does not mention sealing", msg)
	}
}
