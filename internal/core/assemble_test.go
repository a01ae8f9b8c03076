package core

import (
	"runtime"
	"strings"
	"testing"

	"busytime/internal/interval"
	"busytime/internal/xrand"
)

// asmInstance builds a seeded instance without importing the generator
// package (which itself imports core).
func asmInstance(seed int64, n, g int, window, maxLen float64) *Instance {
	r := xrand.New(seed)
	in := &Instance{Name: "asm-test", G: g}
	for i := 0; i < n; i++ {
		s := r.Float64() * window
		in.Jobs = append(in.Jobs, Job{ID: i, Iv: interval.New(s, s+r.Float64()*maxLen), Demand: 1})
	}
	return in
}

// TestAssemblyMatchesInsertion pins the sealed stitch path against the
// ordinary insertion path: grafting a live run's span pieces and replaying
// its logged span deltas through Assembly in the same placement order must
// reproduce the machine job lists, the busy spans and the bitwise cost.
func TestAssemblyMatchesInsertion(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		in := asmInstance(seed, 60, 3, 40, 10)
		sc := new(Scratch)
		sc.ArmSpanLog(make([]float64, 0, in.N()))
		ref := sc.NewSchedule(in)
		ref.ApplyOrder(LowestFit, indexOrder(in.N()))
		deltas := ref.EndSpanLog()
		if len(deltas) != in.N() {
			t.Fatalf("seed=%d: span log holds %d deltas, want %d", seed, len(deltas), in.N())
		}
		asm := BeginAssembly(in, new(Scratch), ref.NumMachines())
		for m := 0; m < ref.NumMachines(); m++ {
			asm.Graft(m, ref.AppendMachineSpans(m, nil))
		}
		for j := range in.Jobs {
			asm.PutDelta(j, ref.MachineOf(j), deltas[j])
		}
		got := asm.Finish()
		if got.NumMachines() != ref.NumMachines() {
			t.Fatalf("seed=%d: %d machines vs %d", seed, got.NumMachines(), ref.NumMachines())
		}
		for j := range in.Jobs {
			if got.MachineOf(j) != ref.MachineOf(j) {
				t.Fatalf("seed=%d: job %d on %d vs %d", seed, j, got.MachineOf(j), ref.MachineOf(j))
			}
		}
		for m := 0; m < ref.NumMachines(); m++ {
			ja, jb := got.MachineJobs(m), ref.MachineJobs(m)
			if len(ja) != len(jb) {
				t.Fatalf("seed=%d: machine %d holds %d vs %d jobs", seed, m, len(ja), len(jb))
			}
			for i := range ja {
				if ja[i] != jb[i] {
					t.Fatalf("seed=%d: machine %d slot %d: %d vs %d", seed, m, i, ja[i], jb[i])
				}
			}
			if got.MachineBusy(m) != ref.MachineBusy(m) {
				t.Fatalf("seed=%d: machine %d busy %v vs %v", seed, m, got.MachineBusy(m), ref.MachineBusy(m))
			}
		}
		if got.Cost() != ref.Cost() {
			t.Fatalf("seed=%d: cost %v vs %v", seed, got.Cost(), ref.Cost())
		}
		if err := got.Verify(); err != nil {
			t.Fatalf("seed=%d: assembled schedule does not verify: %v", seed, err)
		}
	}
}

// mustPanic runs f and returns the recovered panic message, failing the test
// if f returns normally.
func mustPanic(t *testing.T, label string, f func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = toString(r)
			}
		}()
		f()
		t.Fatalf("%s: no panic", label)
	}()
	return msg
}

func toString(r any) string {
	if s, ok := r.(string); ok {
		return s
	}
	if e, ok := r.(error); ok {
		return e.Error()
	}
	return "?"
}

// TestSealedScheduleRejectsMutation pins the sealed contract: a finished
// assembly has no capacity oracles, so placing on it, by a rule or on a
// chosen machine, must panic loudly instead of silently accepting an
// infeasible placement.
func TestSealedScheduleRejectsMutation(t *testing.T) {
	in := asmInstance(9, 20, 2, 15, 5)
	asm := BeginAssembly(in, new(Scratch), 1)
	for j := 0; j < in.N()-1; j++ {
		asm.PutDelta(j, 0, 0)
	}
	s := asm.Finish()
	last := in.N() - 1
	if msg := mustPanic(t, "ApplyOrder", func() { s.ApplyOrder(LowestFit, []int32{int32(last)}) }); !strings.Contains(msg, "sealed") {
		t.Errorf("ApplyOrder panic %q does not mention sealing", msg)
	}
	if msg := mustPanic(t, "Assign", func() { s.Assign(last, 0) }); !strings.Contains(msg, "sealed") {
		t.Errorf("Assign panic %q does not mention sealing", msg)
	}
}

// TestAssemblyDoublePlacementPanics pins PutDelta's replay invariant.
func TestAssemblyDoublePlacementPanics(t *testing.T) {
	in := asmInstance(10, 10, 2, 8, 3)
	asm := BeginAssembly(in, new(Scratch), 1)
	asm.PutDelta(0, 0, 0)
	if msg := mustPanic(t, "double PutDelta", func() { asm.PutDelta(0, 0, 0) }); !strings.Contains(msg, "twice") {
		t.Errorf("double placement panic %q does not mention the duplicate", msg)
	}
}

// TestSealedClearsOnRecycle pins that recycling an arena that last held a
// sealed schedule returns a fully mutable schedule again.
func TestSealedClearsOnRecycle(t *testing.T) {
	in := asmInstance(11, 30, 3, 20, 6)
	sc := new(Scratch)
	asm := BeginAssembly(in, sc, 2)
	for j := range in.Jobs {
		asm.PutDelta(j, j%2, 0)
	}
	asm.Finish()
	s := sc.NewSchedule(in)
	s.ApplyOrder(LowestFit, indexOrder(in.N()))
	if err := s.Verify(); err != nil {
		t.Fatalf("recycled schedule does not verify: %v", err)
	}
}

// TestCopyScheduleBytes holds a sealed copy near the size of what it copies:
// 100 copies of a 10-job, 3-machine schedule take at most 3,000 bytes each
// (runtime.MemStats). A copy assembles on a Scratch of its own, which never
// runs ApplyOrder, so it carries no 8 KiB record block.
func TestCopyScheduleBytes(t *testing.T) {
	// Ten jobs through the point 5 at g = 4: FirstFit fills 4, 4 and 2.
	ivs := make([]interval.Interval, 10)
	for i := range ivs {
		ivs[i] = interval.New(float64(i)/10, 5+float64(i)/10)
	}
	in := NewInstance(4, ivs...)
	s := NewSchedule(in)
	s.ApplyOrder(LowestFit, in.LengthOrder())
	if s.NumMachines() != 3 {
		t.Fatalf("schedule has %d machines, want 3", s.NumMachines())
	}
	const copies, ceiling = 100, 3000
	kept := make([]*Schedule, copies)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range kept {
		kept[i] = CopySchedule(s)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / copies; per > ceiling {
		t.Fatalf("a sealed copy takes %d bytes; ceiling %d", per, ceiling)
	}
	for _, c := range kept {
		if c.Cost() != s.Cost() || c.NumMachines() != 3 {
			t.Fatalf("copy: cost %v on %d machines, want %v on 3", c.Cost(), c.NumMachines(), s.Cost())
		}
	}
}
