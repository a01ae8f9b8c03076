// Package registrytest pins the registry-wide contract of the placement
// kernel refactor: every registered algorithm carries a RunScratch entry
// point, and RunScratch is byte-identical to Run — same machine count, same
// job→machine map, same per-machine job lists, bitwise-equal cost — across
// every generator family, with one shared Scratch kept warm across all
// algorithms and instances. Algorithms with class preconditions (clique,
// laminar, exact, boundedlength) must fail on both paths symmetrically.
//
// It lives in its own package so the algo package's registration unit tests
// (which inject stub algorithms) cannot leak into the registry under test.
package registrytest

import (
	"context"
	"fmt"
	"testing"

	"busytime/internal/algo"
	_ "busytime/internal/algo/baselines"
	_ "busytime/internal/algo/boundedlength"
	_ "busytime/internal/algo/cliquealgo"
	_ "busytime/internal/algo/exact"
	_ "busytime/internal/algo/firstfit"
	_ "busytime/internal/algo/laminar"
	_ "busytime/internal/algo/portfolio"
	_ "busytime/internal/algo/properfit"
	"busytime/internal/core"
	"busytime/internal/decomp"
	"busytime/internal/generator"
	"busytime/internal/interval"
	_ "busytime/internal/online"
	"busytime/internal/sim"
)

// families enumerates the nine generator families of the differential
// suite; sizes stay modest so the full registry sweep stays fast.
func families(seed int64) []*core.Instance {
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
		generator.Clustered(seed, 6, 12, 3, 9, 4),
	}
}

// runSafely converts algorithm panics (class preconditions, size limits) to
// errors so the sweep can assert failure symmetry.
func runSafely(f func() *core.Schedule) (s *core.Schedule, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("%v", r)
		}
	}()
	return f(), nil
}

// assertIdentical fails unless the two schedules are byte-identical.
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

// TestEveryAlgorithmHasRunScratch is the registry completeness gate of the
// kernel refactor.
func TestEveryAlgorithmHasRunScratch(t *testing.T) {
	all := algo.All()
	if len(all) == 0 {
		t.Fatal("registry is empty")
	}
	for _, a := range all {
		if a.RunScratch == nil {
			t.Errorf("%s has no RunScratch", a.Name)
		}
	}
}

// degenerateInputs are the two smallest time axes a schedule can be built
// on: every job at one instant, which leaves the axis without buckets (the
// saturation bitmap is off and each machine keeps a single time shard), and
// a single job, whose axis has exactly one bucket.
func degenerateInputs() []*core.Instance {
	point := make([]interval.Interval, 5)
	for i := range point {
		point[i] = interval.New(4, 4)
	}
	pointOnly := core.NewInstance(2, point...)
	pointOnly.Name = "point-only"
	oneJob := core.NewInstance(2, interval.New(1, 3))
	oneJob.Name = "one-job"
	return []*core.Instance{pointOnly, oneJob}
}

// TestRegistryRunScratchParity sweeps every registered algorithm over every
// generator family and then the degenerate inputs, comparing Run against
// RunScratch through one shared, warm Scratch. The Run schedule is
// independently allocated, and each recycled schedule is compared before the
// scratch's next use, so the two never alias. No algorithm rejects a
// degenerate input, so those must succeed on both paths.
func TestRegistryRunScratchParity(t *testing.T) {
	type input struct {
		label string
		in    *core.Instance
	}
	var inputs []input
	for seed := int64(0); seed < 4; seed++ {
		for fi, in := range families(seed) {
			inputs = append(inputs, input{fmt.Sprintf("seed=%d family=%d", seed, fi), in})
		}
	}
	degenerate := degenerateInputs()
	if nb := degenerate[0].TimeAxis().NB(); nb != 0 {
		t.Fatalf("point-only instance has %d axis buckets, want 0", nb)
	}
	for _, in := range degenerate {
		inputs = append(inputs, input{in.Name, in})
	}
	sc := new(core.Scratch)
	for ii, c := range inputs {
		mustRun := ii >= len(inputs)-len(degenerate)
		for _, a := range all(t) {
			a, in := a, c.in
			label := a.Name + " " + c.label
			fresh, errRun := runSafely(func() *core.Schedule { return a.Run(in) })
			recycled, errScratch := runSafely(func() *core.Schedule { return a.RunScratch(in, sc) })
			if mustRun && (errRun != nil || errScratch != nil) {
				t.Fatalf("%s: Run err=%v, RunScratch err=%v", label, errRun, errScratch)
			}
			if (errRun == nil) != (errScratch == nil) {
				t.Fatalf("%s: Run err=%v but RunScratch err=%v", label, errRun, errScratch)
			}
			if errRun != nil {
				continue // class precondition failed on both paths
			}
			if err := fresh.Verify(); err != nil {
				t.Fatalf("%s: Run schedule infeasible: %v", label, err)
			}
			assertIdentical(t, label, fresh, recycled)
		}
	}
}

// all returns the registry, skipping nothing; split out so the parity sweep
// fails loudly if registration ever becomes empty.
func all(t testing.TB) []algo.Algorithm {
	t.Helper()
	out := algo.All()
	if len(out) == 0 {
		t.Fatal("registry is empty")
	}
	return out
}

// TestRegistryDecomposedParity is the decomposition layer's registry-wide
// differential: for every algorithm that declares a Decomposer, the
// decompose–solve–merge path over spare arenas must be byte-identical to the
// plain sequential run on every generator family — same assignment, same
// per-machine slot order, bitwise-equal cost — and must fail symmetrically
// where the sequential path fails (the exact solver's component limit).
func TestRegistryDecomposedParity(t *testing.T) {
	pool := make(chan *core.Scratch, 3)
	for i := 0; i < 3; i++ {
		pool <- new(core.Scratch)
	}
	runner := decomp.NewRunner()
	seqScratch := new(core.Scratch)
	decomposable := 0
	for _, a := range all(t) {
		if a.Decompose != nil {
			decomposable++
		}
	}
	if decomposable < 7 {
		t.Fatalf("only %d registered algorithms declare a Decomposer; want ≥ 7", decomposable)
	}
	for seed := int64(0); seed < 4; seed++ {
		for fi, in := range families(seed) {
			for _, a := range all(t) {
				if a.Decompose == nil {
					continue
				}
				a := a
				label := fmt.Sprintf("%s seed=%d family=%d", a.Name, seed, fi)
				seq, seqErr := runSafely(func() *core.Schedule { return a.RunScratch(in, seqScratch) })
				sc := new(core.Scratch)
				dec, st, decErr := runner.Run(context.Background(), in, a.Decompose, sc, pool, 4)
				if dec == nil && decErr == nil {
					// The layer declined; the real callers fall back to the
					// plain sequential path on the same arena.
					if st.Components > 1 {
						t.Fatalf("%s: layer declined on %d components with 3 spare arenas", label, st.Components)
					}
					dec, decErr = runSafely(func() *core.Schedule { return a.RunScratch(in, sc) })
				}
				if (seqErr == nil) != (decErr == nil) {
					t.Fatalf("%s: sequential err=%v but decomposed err=%v", label, seqErr, decErr)
				}
				if seqErr != nil {
					continue // failed symmetrically (component limits)
				}
				assertIdentical(t, label, seq, dec)
			}
		}
	}
}

// TestRegistryScratchSizeLadder stresses the shared arena across shrinking
// and growing instances for the kernel-routed policies that exercise the
// index (firstfit, bestfit, the online replays), pinning each recycled
// schedule against a fresh run.
func TestRegistryScratchSizeLadder(t *testing.T) {
	names := []string{"firstfit", "bestfit", "online-firstfit", "online-bestfit", "online-nextfit"}
	sc := new(core.Scratch)
	sizes := []int{30, 1500, 100, 900, 7, 1500}
	for round, n := range sizes {
		in := generator.General(int64(700+round), n, 3+round%4, float64(n)/2+1, 18)
		for _, name := range names {
			a, ok := algo.Lookup(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			fresh := a.Run(in)
			recycled := a.RunScratch(in, sc)
			assertIdentical(t, fmt.Sprintf("%s round=%d n=%d", name, round, n), fresh, recycled)
		}
	}
}

// TestRegistrySimCrossCheck is the registry-wide differential against the
// discrete-event simulator: for every algorithm × generator family, the busy
// time measured by replaying the produced schedule event by event must equal
// the analytic span-based cost, with zero capacity violations. It catches
// span-accounting drift in any future placement kernel from the opposite
// direction — billing what a machine executing the schedule would bill.
func TestRegistrySimCrossCheck(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for fi, in := range families(seed) {
			for _, a := range all(t) {
				a := a
				label := fmt.Sprintf("%s seed=%d family=%d", a.Name, seed, fi)
				s, err := runSafely(func() *core.Schedule { return a.Run(in) })
				if err != nil {
					continue // class precondition rejected the family
				}
				if err := sim.Check(s, 1e-6); err != nil {
					t.Fatalf("%s: replay disagrees with analytic cost: %v", label, err)
				}
			}
		}
	}
}
