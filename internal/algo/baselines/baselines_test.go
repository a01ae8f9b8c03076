package baselines

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"busytime/internal/algo"
	"busytime/internal/algo/exact"
	"busytime/internal/core"
	"busytime/internal/generator"
	"busytime/internal/interval"
)

func iv(s, e float64) interval.Interval { return interval.New(s, e) }

// row returns the registered algorithm of the given name as a schedule
// function on sc (fresh memory when sc is nil): the tests drive the greedy
// baselines through their registry rows, exactly as the Solver does. The
// greedy rows accept every valid instance, so an error panics.
func row(name string) func(*core.Instance, *core.Scratch) *core.Schedule {
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

// freshRow is row(name) on fresh memory.
func freshRow(name string) func(*core.Instance) *core.Schedule {
	run := row(name)
	return func(in *core.Instance) *core.Schedule { return run(in, nil) }
}

func TestAllRegistered(t *testing.T) {
	for _, name := range []string{"firstfit-start", "nextfit", "bestfit", "machine-min", "randomfit"} {
		a, ok := algo.Lookup(name)
		if !ok {
			t.Errorf("%s not registered", name)
			continue
		}
		if a.Run == nil {
			t.Errorf("%s has no Run", name)
		}
	}
}

// diffFamilies mirrors the firstfit differential suite's generator sweep.
func diffFamilies(seed int64) []*core.Instance {
	gen := generator.General(seed, 120, 3, 80, 20)
	return []*core.Instance{
		gen,
		generator.Proper(seed, 100, 3, 60, 15),
		generator.Clique(seed, 60, 4, 10, 8),
		generator.BoundedLength(seed, 80, 2, 6, 4),
		generator.Laminar(seed, 3, 3, 3, 4, 20),
		generator.CloudBurst(seed, 150, 6, 200, 10, 4, 0.6),
		generator.LightpathWave(seed, 5, 30, 4, 40, 15, 10),
		generator.WithDemands(gen, seed+1, 3),
	}
}

// assertIdentical requires full byte-identity — machine count, job→machine
// map, per-machine job lists in assignment order, and bitwise-equal cost —
// matching the registry-wide suite's definition exactly.
func assertIdentical(t *testing.T, label string, a, b *core.Schedule) {
	t.Helper()
	if a.NumMachines() != b.NumMachines() {
		t.Fatalf("%s: %d machines vs %d", label, a.NumMachines(), b.NumMachines())
	}
	for j := 0; j < a.Instance().N(); j++ {
		if a.MachineOf(j) != b.MachineOf(j) {
			t.Fatalf("%s: job %d on machine %d vs %d", label, j, a.MachineOf(j), b.MachineOf(j))
		}
	}
	for m := 0; m < a.NumMachines(); m++ {
		ja, jb := a.MachineJobs(m), b.MachineJobs(m)
		if len(ja) != len(jb) {
			t.Fatalf("%s: machine %d holds %d vs %d jobs", label, m, len(ja), len(jb))
		}
		for i := range ja {
			if ja[i] != jb[i] {
				t.Fatalf("%s: machine %d slot %d: job %d vs %d", label, m, i, ja[i], jb[i])
			}
		}
	}
	if a.Cost() != b.Cost() {
		t.Fatalf("%s: cost %v vs %v", label, a.Cost(), b.Cost())
	}
}

// bestFitScan is the reference BestFit: the same longest-first argmin, but
// every machine is checked in index order, feasibility is decided by
// bruteFits and busy-time growth by spanGrowth, independently of the
// kernel's capacity structures and span unions.
func bestFitScan(in *core.Instance) *core.Schedule {
	s := core.NewSchedule(in)
	for _, jj := range in.LengthOrder() {
		j := int(jj)
		bestM, bestDelta := -1, 0.0
		for m := 0; m < s.NumMachines(); m++ {
			if !bruteFits(s, j, m) {
				continue
			}
			if delta := spanGrowth(s, m, in.Jobs[j].Iv); bestM < 0 || delta < bestDelta {
				bestM, bestDelta = m, delta
			}
		}
		if bestM < 0 {
			bestM = s.OpenMachine()
		}
		s.Assign(j, bestM)
	}
	return s
}

// spanGrowth returns how much machine m's busy time grows when iv joins it,
// from the union of the machine's job intervals: the hull of iv and the
// union pieces it overlaps or touches, less the measure of those pieces.
// It adds the same floats in the same order as a span union would, so equal
// growths stay equal bit for bit.
func spanGrowth(s *core.Schedule, m int, iv interval.Interval) float64 {
	lo, hi, covered := iv.Start, iv.End, 0.0
	for _, p := range s.MachineSet(m).Union() {
		if p.End >= iv.Start && p.Start <= iv.End {
			lo, hi, covered = min(lo, p.Start), max(hi, p.End), covered+p.Len()
		}
	}
	return (hi - lo) - covered
}

// bruteFits reports whether job j fits machine m of s: the machine's jobs
// plus j, each repeated demand times, never overlap more than g deep.
func bruteFits(s *core.Schedule, j, m int) bool {
	in := s.Instance()
	var load interval.Set
	for _, k := range append(slices.Clone(s.MachineJobs(m)), j) {
		for d := 0; d < in.Jobs[k].Demand; d++ {
			load = append(load, in.Jobs[k].Iv)
		}
	}
	return load.MaxDepth() <= in.G
}

// TestBestFitKernelMatchesScan is the differential contract of the kernel
// BestFit: across every generator family and a seed sweep, the pruned
// indexed argmin must produce byte-identical schedules to the brute-force
// per-machine scan.
func TestBestFitKernelMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		for fi, in := range diffFamilies(seed) {
			kernel := row("bestfit")(in, nil)
			if err := kernel.Verify(); err != nil {
				t.Fatalf("seed %d family %d: kernel BestFit infeasible: %v", seed, fi, err)
			}
			scan := bestFitScan(in)
			assertIdentical(t, fmt.Sprintf("seed=%d family=%d", seed, fi), kernel, scan)
		}
	}
}

// TestBestFitScratchMatchesFresh pins the recycled arena under BestFit:
// streaming many instances through one Scratch must reproduce fresh kernel
// runs byte for byte.
func TestBestFitScratchMatchesFresh(t *testing.T) {
	sc := new(core.Scratch)
	for seed := int64(0); seed < 8; seed++ {
		for fi, in := range diffFamilies(seed) {
			recycled := row("bestfit")(in, sc)
			fresh := row("bestfit")(in, nil)
			if fi == 0 && recycled.NumMachines() == 0 && in.N() > 0 {
				t.Fatal("empty schedule")
			}
			assertIdentical(t, "scratch", recycled, fresh)
		}
	}
}

// TestBestFitZeroAllocSteadyState is the BestFit arena acceptance gate:
// after one warm-up pass, re-scheduling an instance through a recycled
// Scratch — NewSchedule and every kernel BestFit placement — performs zero
// allocations.
func TestBestFitZeroAllocSteadyState(t *testing.T) {
	in := generator.General(3, 3000, 4, 1500, 25)
	sc := new(core.Scratch)
	bestFit := row("bestfit")
	run := func() {
		s := bestFit(in, sc)
		if s.NumMachines() == 0 {
			t.Fatal("empty schedule")
		}
	}
	run() // warm-up sizes the arena and the instance's cached length order
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("warm BestFit allocated %v times per run; want 0", allocs)
	}
}

// FuzzBestFitWarmScratch drives the BestFit differential check from fuzzed
// shapes, with the scratch arriving warm from a differently-shaped instance
// so no stale index or arena state can leak into the argmin.
func FuzzBestFitWarmScratch(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(3), uint8(20))
	f.Add(int64(99), uint8(200), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, n, g, maxLen uint8) {
		in := generator.General(seed, int(n)+1, int(g)%8+1, float64(n)/2+1, float64(maxLen)+1)
		scan := bestFitScan(in)
		assertIdentical(t, "fuzz-kernel", row("bestfit")(in, nil), scan)
		sc := new(core.Scratch)
		warm := generator.General(seed+1, int(maxLen)+2, int(g)%5+1, float64(g)+2, float64(n)/4+1)
		_ = row("bestfit")(warm, sc)
		assertIdentical(t, "fuzz-scratch", row("bestfit")(in, sc), scan)
	})
}

func TestAllFeasibleOnRandom(t *testing.T) {
	runs := []struct {
		name string
		run  func(*core.Instance) *core.Schedule
	}{
		{"firstfit-start", freshRow("firstfit-start")},
		{"nextfit", freshRow("nextfit")},
		{"bestfit", freshRow("bestfit")},
		{"machine-min", MachineMin},
		{"randomfit", func(in *core.Instance) *core.Schedule { return RandomFit(in, 42) }},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			f := func(seed int64, nn, gg uint8) bool {
				in := generator.General(seed, int(nn%25)+1, int(gg%4)+1, 40, 12)
				s := tc.run(in)
				return s.Verify() == nil && s.Complete()
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestMachineMinUsesMinimumMachines(t *testing.T) {
	// ⌈ω/g⌉ machines exactly (§1.1: a k-coloring induces ⌈k/g⌉ machines,
	// and interval graphs have χ = ω).
	for seed := int64(0); seed < 25; seed++ {
		in := generator.General(seed, 30, 3, 25, 10)
		s := MachineMin(in)
		if err := s.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		omega := in.Set().MaxDepth()
		want := (omega + in.G - 1) / in.G
		if s.NumMachines() != want {
			t.Errorf("seed %d: machines = %d, want ⌈%d/%d⌉ = %d",
				seed, s.NumMachines(), omega, in.G, want)
		}
	}
}

func TestMachineMinIsMachineLowerBound(t *testing.T) {
	// No feasible schedule can use fewer machines than ⌈ω/g⌉: any point of
	// depth ω needs that many machines simultaneously.
	in := generator.General(11, 20, 2, 15, 8)
	s := MachineMin(in)
	opt, err := exact.Solve(in)
	if err != nil {
		t.Skip("component too large for exact")
	}
	if opt.NumMachines() < s.NumMachines() {
		t.Errorf("exact used %d machines < machine-min %d", opt.NumMachines(), s.NumMachines())
	}
}

func TestMachineMinFallsBackOnDemands(t *testing.T) {
	in := core.NewInstance(3, iv(0, 2), iv(1, 3))
	in.Jobs[0].Demand = 2
	s := MachineMin(in)
	if err := s.Verify(); err != nil {
		t.Fatalf("demand fallback infeasible: %v", err)
	}
}

func TestBestFitPrefersNoGrowth(t *testing.T) {
	// With g=2: long [0,10] first; short [2,3] can go on M0 at zero growth
	// and BestFit must take it.
	in := core.NewInstance(2, iv(0, 10), iv(2, 3))
	s := row("bestfit")(in, nil)
	if s.NumMachines() != 1 {
		t.Errorf("machines = %d, want 1", s.NumMachines())
	}
	if s.Cost() != 10 {
		t.Errorf("cost = %v, want 10", s.Cost())
	}
}

func TestNextFitNeverRevisits(t *testing.T) {
	// Jobs: A[0,2] B[1,3] C[0.5,1.5] with g=2. Start order: A, C, B.
	// A,C on M0; B conflicts (depth 2 at [1,1.5]) → M1. A later D[4,5]
	// fits M1 (current) even though M0 also fits.
	in := core.NewInstance(2, iv(0, 2), iv(1, 3), iv(0.5, 1.5), iv(4, 5))
	s := row("nextfit")(in, nil)
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if s.MachineOf(3) != s.MachineOf(1) {
		t.Errorf("NextFit should keep filling the current machine: D on %d, B on %d",
			s.MachineOf(3), s.MachineOf(1))
	}
}

func TestRandomFitDeterministicPerSeed(t *testing.T) {
	in := generator.General(5, 20, 3, 30, 9)
	a := RandomFit(in, 7).Cost()
	b := RandomFit(in, 7).Cost()
	if a != b {
		t.Errorf("same seed, different costs: %v vs %v", a, b)
	}
}

func TestEmptyInstances(t *testing.T) {
	in := core.NewInstance(2)
	for _, run := range []func(*core.Instance) *core.Schedule{freshRow("firstfit-start"), freshRow("nextfit"), freshRow("bestfit"), MachineMin} {
		s := run(in)
		if s.Cost() != 0 || s.Verify() != nil {
			t.Error("empty instance mishandled")
		}
	}
}

func BenchmarkBestFit1k(b *testing.B) {
	in := generator.General(7, 1000, 4, 500, 30)
	bestFit := freshRow("bestfit")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bestFit(in)
	}
}

func BenchmarkMachineMin1k(b *testing.B) {
	in := generator.General(7, 1000, 4, 500, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MachineMin(in)
	}
}
