package busytime_test

import (
	"context"
	"math"
	"testing"

	"busytime"
	"busytime/internal/generator"
)

// clustered returns a multi-component instance: WithIntraWorkers' natural
// habitat.
func clustered(seed int64) *busytime.Instance {
	return generator.Clustered(seed, 8, 30, 3, 12, 5)
}

// TestWithIntraWorkersValidation pins the option's eager validation.
func TestWithIntraWorkersValidation(t *testing.T) {
	if _, err := busytime.New(busytime.WithIntraWorkers(-1)); err == nil {
		t.Error("negative intra workers accepted")
	}
	if _, err := busytime.New(busytime.WithIntraWorkers(0), busytime.WithFreshSchedules()); err != nil {
		t.Errorf("WithIntraWorkers + WithFreshSchedules rejected; fresh solves lease the pool too: %v", err)
	}
	if _, err := busytime.New(busytime.WithIntraWorkers(1), busytime.WithFreshSchedules()); err != nil {
		t.Errorf("WithIntraWorkers(1) is off and should coexist with fresh mode: %v", err)
	}
	if _, err := busytime.New(busytime.WithIntraWorkers(0), busytime.WithWorkers(4)); err != nil {
		t.Errorf("auto intra workers rejected: %v", err)
	}
}

// freshMatchesArena solves every input on an arena-mode and a fresh-mode
// solver built from the same options, for the firstfit and bestfit rows,
// and requires the same assignment, machine count, cost bits and
// decomposition verdict. It returns the fresh results, whose schedules the
// caller can check again after later solves.
func freshMatchesArena(t *testing.T, inputs []*busytime.Instance, opts ...busytime.Option) []busytime.Result {
	t.Helper()
	var out []busytime.Result
	for _, name := range []string{"firstfit", "bestfit"} {
		base := []busytime.Option{busytime.WithAlgorithm(name), busytime.WithVerify(true)}
		arena, err := busytime.New(append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := busytime.New(append(append(base, opts...), busytime.WithFreshSchedules())...)
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range inputs {
			want, err := arena.Solve(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fresh.Solve(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			if got.Machines != want.Machines || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
				t.Fatalf("%s input %d: fresh m=%d cost=%v, arena m=%d cost=%v",
					name, i, got.Machines, got.Cost, want.Machines, want.Cost)
			}
			for j := range in.Jobs {
				if got.Schedule.MachineOf(j) != want.Schedule.MachineOf(j) {
					t.Fatalf("%s input %d: job %d on machine %d fresh, %d arena",
						name, i, j, got.Schedule.MachineOf(j), want.Schedule.MachineOf(j))
				}
			}
			if got.Decomp.Decomposed() != want.Decomp.Decomposed() || got.Decomp.Shards != want.Decomp.Shards {
				t.Fatalf("%s input %d: fresh decomposition %+v, arena %+v", name, i, got.Decomp, want.Decomp)
			}
			out = append(out, got)
		}
	}
	return out
}

// TestFreshIntraWorkersMatchArena pins WithFreshSchedules under
// WithIntraWorkers: a fresh solve runs the same decomposed path on the
// leased arena and returns a copy of its schedule, so the clustered input
// decomposes in both modes, the dense one declines in both, and every
// schedule is the arena mode's. The fresh schedules survive the later
// solves that recycle the arenas they were copied from.
func TestFreshIntraWorkersMatchArena(t *testing.T) {
	inputs := []*busytime.Instance{clustered(1), dense(1)}
	results := freshMatchesArena(t, inputs, busytime.WithWorkers(4), busytime.WithIntraWorkers(2))
	if !results[0].Decomp.Decomposed() {
		t.Fatalf("fresh solve of the clustered input did not decompose: %+v", results[0].Decomp)
	}
	for i, res := range results {
		if err := res.Schedule.Verify(); err != nil {
			t.Fatalf("fresh result %d no longer verifies: %v", i, err)
		}
		if math.Float64bits(res.Schedule.Cost()) != math.Float64bits(res.Cost) {
			t.Fatalf("fresh result %d changed: cost %v, want %v", i, res.Schedule.Cost(), res.Cost)
		}
	}
}

// TestSolveDecomposesAndMatchesSequential pins the public decomposed path
// bitwise against a sequential session, and the Decomp telemetry shape.
func TestSolveDecomposesAndMatchesSequential(t *testing.T) {
	for _, name := range []string{"firstfit", "bestfit", "online-firstfit"} {
		seq, err := busytime.New(busytime.WithAlgorithm(name), busytime.WithVerify(true))
		if err != nil {
			t.Fatal(err)
		}
		par, err := busytime.New(busytime.WithAlgorithm(name), busytime.WithVerify(true),
			busytime.WithWorkers(4), busytime.WithIntraWorkers(0))
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 3; seed++ {
			in := clustered(seed)
			want, err := seq.Solve(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			if want.Decomp.Decomposed() || want.Decomp.Components != 0 {
				t.Fatalf("%s: sequential session reports decomposition: %+v", name, want.Decomp)
			}
			wantCost, wantMachines := want.Cost, want.Machines

			got, err := par.Solve(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Decomp.Decomposed() {
				t.Fatalf("%s seed=%d: layer declined with 3 spare arenas: %+v", name, seed, got.Decomp)
			}
			d := got.Decomp
			if d.Components < 2 || d.Workers < 2 || d.LargestComponent < 1 {
				t.Fatalf("%s seed=%d: telemetry %+v", name, seed, d)
			}
			if len(d.PerComponent) != d.Components {
				t.Fatalf("%s seed=%d: %d per-component entries for %d components", name, seed, len(d.PerComponent), d.Components)
			}
			jobs := 0
			for _, c := range d.PerComponent {
				jobs += c.Jobs
			}
			if jobs != in.N() {
				t.Fatalf("%s seed=%d: component sizes sum to %d, want %d", name, seed, jobs, in.N())
			}
			if got.Cost != wantCost || got.Machines != wantMachines {
				t.Fatalf("%s seed=%d: decomposed (m=%d cost=%v) vs sequential (m=%d cost=%v)",
					name, seed, got.Machines, got.Cost, wantMachines, wantCost)
			}
			for j := 0; j < in.N(); j++ {
				if got.Schedule.MachineOf(j) != want.Schedule.MachineOf(j) {
					t.Fatalf("%s seed=%d: job %d machine %d vs %d", name, seed, j,
						got.Schedule.MachineOf(j), want.Schedule.MachineOf(j))
				}
			}
		}
	}
}

// TestSolveBatchDecomposedParity pins the batch path: SolveBatch with intra
// workers equals SolveBatch without, and the per-result telemetry reports the
// components.
func TestSolveBatchDecomposedParity(t *testing.T) {
	var batch []*busytime.Instance
	for seed := int64(0); seed < 5; seed++ {
		batch = append(batch, clustered(seed))
	}
	plain, err := busytime.New(busytime.WithWorkers(4), busytime.WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	intra, err := busytime.New(busytime.WithWorkers(4), busytime.WithIntraWorkers(0), busytime.WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.SolveBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := intra.SolveBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	decomposed := 0
	for i := range want {
		if want[i].Err != "" || got[i].Err != "" {
			t.Fatalf("index %d: errs %q / %q", i, want[i].Err, got[i].Err)
		}
		if want[i].Cost != got[i].Cost || want[i].Machines != got[i].Machines {
			t.Fatalf("index %d: plain (m=%d cost=%v) vs intra (m=%d cost=%v)", i,
				want[i].Machines, want[i].Cost, got[i].Machines, got[i].Cost)
		}
		if got[i].IntraWorkers > 1 {
			decomposed++
			if got[i].Components < 2 {
				t.Fatalf("index %d: decomposed with %d components", i, got[i].Components)
			}
		}
	}
	if decomposed == 0 {
		t.Fatal("no batch instance was decomposed; spare arenas never materialized")
	}
}

// TestIntraInertForUndecomposableAlgorithm pins the documented silence: an
// algorithm without a Decomposer runs unchanged under WithIntraWorkers.
func TestIntraInertForUndecomposableAlgorithm(t *testing.T) {
	s, err := busytime.New(busytime.WithAlgorithm("nextfit"), busytime.WithWorkers(4), busytime.WithIntraWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), clustered(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decomp.Decomposed() || res.Decomp.Components != 0 {
		t.Fatalf("nextfit reports decomposition telemetry: %+v", res.Decomp)
	}
}

// TestIntraExactRespectsSessionLimit pins that the decomposed exact path
// carries WithExactLimit: a component over the session limit fails both ways.
func TestIntraExactRespectsSessionLimit(t *testing.T) {
	in := generator.Clustered(3, 4, 10, 2, 8, 3) // components of 10 jobs
	tight, err := busytime.New(busytime.WithAlgorithm("exact"), busytime.WithExactLimit(5),
		busytime.WithWorkers(4), busytime.WithIntraWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tight.Solve(context.Background(), in); err == nil {
		t.Fatal("10-job components passed a 5-job limit")
	}
	wide, err := busytime.New(busytime.WithAlgorithm("exact"), busytime.WithExactLimit(12),
		busytime.WithWorkers(4), busytime.WithIntraWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := wide.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := busytime.New(busytime.WithAlgorithm("exact"), busytime.WithExactLimit(12))
	if err != nil {
		t.Fatal(err)
	}
	want, err := seq.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != want.Cost || res.Machines != want.Machines {
		t.Fatalf("decomposed exact (m=%d cost=%v) vs sequential (m=%d cost=%v)",
			res.Machines, res.Cost, want.Machines, want.Cost)
	}
}

// TestWarmIntraSolveAllocs pins the Go-heap allocations of a warm
// WithIntraWorkers(2) Solve on a clustered input: the runner, its stats
// buffer and both arenas are recycled, so the count stays at the measured
// warmIntraAllocs.
func TestWarmIntraSolveAllocs(t *testing.T) {
	const warmIntraAllocs = 0
	in := generator.Clustered(3, 40, 25, 3, 10, 4)
	s, err := busytime.New(busytime.WithWorkers(2), busytime.WithIntraWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	solve := func() {
		res, err := s.Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Decomp.Decomposed() || len(res.Decomp.PerComponent) < 2 {
			t.Fatalf("Solve did not decompose: %+v", res.Decomp)
		}
	}
	for range 3 {
		solve()
	}
	if got := testing.AllocsPerRun(20, solve); got > warmIntraAllocs {
		t.Errorf("warm intra Solve allocates %v objects/op; want ≤ %d", got, warmIntraAllocs)
	}
}
