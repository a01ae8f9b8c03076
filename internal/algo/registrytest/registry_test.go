// Package registrytest pins the registry-wide contract of the placement
// kernel: every registered algorithm carries one Run entry point, and Run
// on a recycled scratch is byte-identical to Run on fresh memory — same
// machine count, same job→machine map, same per-machine job lists,
// bitwise-equal cost — across every generator family, with one shared
// Scratch kept warm across all algorithms and instances. Algorithms with
// class preconditions (clique, laminar, exact, boundedlength) must reject
// on both paths symmetrically, with an error rather than a panic.
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
// kernel refactor: every row has its one entry point.
func TestEveryAlgorithmHasRunScratch(t *testing.T) {
	all := algo.All()
	if len(all) == 0 {
		t.Fatal("registry is empty")
	}
	for _, a := range all {
		if a.Run == nil {
			t.Errorf("%s has no Run", a.Name)
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
// generator family and then the degenerate inputs, comparing Run on fresh
// memory against Run through one shared, warm Scratch. The fresh schedule
// is independently allocated, and each recycled schedule is compared before
// the scratch's next use, so the two never alias. No algorithm rejects a
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
	ctx := context.Background()
	sc := new(core.Scratch)
	for ii, c := range inputs {
		mustRun := ii >= len(inputs)-len(degenerate)
		for _, a := range all(t) {
			label := a.Name + " " + c.label
			fresh, errFresh := a.Run(ctx, c.in, new(core.Scratch))
			recycled, errScratch := a.Run(ctx, c.in, sc)
			if mustRun && (errFresh != nil || errScratch != nil) {
				t.Fatalf("%s: fresh err=%v, scratch err=%v", label, errFresh, errScratch)
			}
			if (errFresh == nil) != (errScratch == nil) {
				t.Fatalf("%s: fresh err=%v but scratch err=%v", label, errFresh, errScratch)
			}
			if errFresh != nil {
				continue // class precondition failed on both paths
			}
			if err := fresh.Verify(); err != nil {
				t.Fatalf("%s: fresh schedule infeasible: %v", label, err)
			}
			assertIdentical(t, label, fresh, recycled)
		}
	}
}

// FuzzRegistryRunParity fuzzes the one entry point: every registered row
// runs on a fuzzed instance (at most 12 jobs, so exact and portfolio stay
// fast; g in 1–4; demands up to g) on fresh memory and on a scratch that a
// differently shaped instance warmed just before. Both runs must agree on
// error-or-not and, on success, on the schedule byte for byte.
func FuzzRegistryRunParity(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(8), uint8(2), uint8(10), uint8(1))
	f.Add(int64(7), uint8(1), uint8(12), uint8(4), uint8(3), uint8(4))
	f.Add(int64(3), uint8(2), uint8(5), uint8(3), uint8(7), uint8(2))
	f.Add(int64(42), uint8(3), uint8(0), uint8(1), uint8(1), uint8(1))
	ctx := context.Background()
	warmer, ok := algo.Lookup("firstfit")
	if !ok {
		f.Fatal("firstfit not registered")
	}
	f.Fuzz(func(t *testing.T, seed int64, family, n, g, maxLen, maxDemand uint8) {
		gg := int(g)%4 + 1
		nn := int(n) % 13
		length := float64(maxLen%20) + 1
		var in *core.Instance
		switch family % 4 {
		case 0:
			in = generator.General(seed, nn, gg, float64(nn)/2+1, length)
		case 1:
			in = generator.Clique(seed, nn, gg, 10, length)
		case 2:
			in = generator.Laminar(seed, gg, 1, 2, 3, length+4)
		default:
			in = generator.Proper(seed, nn, gg, float64(nn)+1, length)
		}
		if d := int(maxDemand)%gg + 1; d > 1 {
			in = generator.WithDemands(in, seed+1, d)
		}
		warm := generator.General(seed+2, int(maxLen)%64+1, int(maxDemand)%5+1, float64(n)+3, 6)
		sc := new(core.Scratch)
		for _, a := range all(t) {
			if _, err := warmer.Run(ctx, warm, sc); err != nil {
				t.Fatal(err)
			}
			label := a.Name + " " + in.Name
			fresh, errFresh := a.Run(ctx, in, new(core.Scratch))
			recycled, errScratch := a.Run(ctx, in, sc)
			if (errFresh == nil) != (errScratch == nil) {
				t.Fatalf("%s: fresh err=%v but scratch err=%v", label, errFresh, errScratch)
			}
			if errFresh != nil {
				continue
			}
			assertIdentical(t, label, fresh, recycled)
		}
	})
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
	ctx := context.Background()
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
				label := fmt.Sprintf("%s seed=%d family=%d", a.Name, seed, fi)
				seq, seqErr := a.Run(ctx, in, seqScratch)
				sc := new(core.Scratch)
				dec, st, decErr := runner.Solve(ctx, in, a.Decompose, sc, pool, 4, 0)
				if dec == nil && decErr == nil {
					// The layer declined; the real callers fall back to the
					// plain sequential path on the same arena.
					if st.Components > 1 {
						t.Fatalf("%s: layer declined on %d components with 3 spare arenas", label, st.Components)
					}
					dec, decErr = a.Run(ctx, in, sc)
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

// clusteredFromBytes derives an instance of clusters time-disjoint clusters
// from data (cycled): each cluster holds 1–12 jobs starting within 7 units of
// its origin and at most 5 long, demands in [1, g], and the next cluster
// starts at least 3 units past the cluster's latest possible end. Every
// component therefore lies inside one cluster and holds at most 12 jobs,
// small enough for the exact search.
func clusteredFromBytes(data []byte, clusters, g int) *core.Instance {
	in := &core.Instance{Name: "fuzz-clustered", G: g}
	i := 0
	next := func() int {
		b := data[i%len(data)]
		i++
		return int(b)
	}
	origin := 0.0
	for c := 0; c < clusters; c++ {
		per := next()%12 + 1
		for k := 0; k < per; k++ {
			start := origin + float64(next()%8)
			in.Jobs = append(in.Jobs, core.Job{
				ID:     len(in.Jobs),
				Iv:     interval.New(start, start+float64(next()%6)),
				Demand: next()%g + 1,
			})
		}
		origin += 15 + float64(next()%3)
	}
	return in
}

// FuzzDecomposedParity fuzzes decomposed ≡ sequential on many small
// components: every registered row with a Decomposer, exact included, runs
// sequentially and through the decomposition layer at worker budgets 2–4
// (spare arenas permitting). Both must agree on the error text or, on
// success, on the schedule byte for byte. The seed corpus includes an
// instance with more components than chunksPerWorker (16) per worker at
// budget 4, so chunks hold several components.
func FuzzDecomposedParity(f *testing.F) {
	f.Add([]byte{7, 3, 9, 1, 4, 12, 2, 7, 5, 0, 11}, uint8(100), uint8(1))
	f.Add([]byte{11, 0, 0, 5, 3, 1, 2, 2, 8}, uint8(20), uint8(2))
	f.Add([]byte{255, 1, 128, 64, 32, 16, 8, 4, 2, 1}, uint8(70), uint8(0))
	ctx := context.Background()
	var rows []algo.Algorithm
	for _, a := range algo.All() {
		if a.Decompose != nil {
			rows = append(rows, a)
		}
	}
	if len(rows) < 7 {
		f.Fatalf("only %d registered algorithms declare a Decomposer; want ≥ 7", len(rows))
	}
	pool := make(chan *core.Scratch, 3)
	for i := 0; i < 3; i++ {
		pool <- new(core.Scratch)
	}
	runner := decomp.NewRunner()
	f.Fuzz(func(t *testing.T, data []byte, clusters, g uint8) {
		if len(data) == 0 {
			return
		}
		in := clusteredFromBytes(data, int(clusters)%128+1, int(g)%3+1)
		sc := new(core.Scratch)
		for _, a := range rows {
			seq, seqErr := a.Run(ctx, in, new(core.Scratch))
			for w := 2; w <= 4; w++ {
				label := fmt.Sprintf("%s budget=%d", a.Name, w)
				dec, st, decErr := runner.Solve(ctx, in, a.Decompose, sc, pool, w, 0)
				if dec == nil && decErr == nil {
					if st.Components > 1 {
						t.Fatalf("%s: layer declined on %d components with spare arenas", label, st.Components)
					}
					dec, decErr = a.Run(ctx, in, sc)
				}
				if fmt.Sprint(seqErr) != fmt.Sprint(decErr) {
					t.Fatalf("%s: sequential err=%v but decomposed err=%v", label, seqErr, decErr)
				}
				if seqErr == nil {
					assertIdentical(t, label, seq, dec)
				}
			}
		}
	})
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
			label := fmt.Sprintf("%s round=%d n=%d", name, round, n)
			fresh, err := a.Run(context.Background(), in, new(core.Scratch))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			recycled, err := a.Run(context.Background(), in, sc)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertIdentical(t, label, fresh, recycled)
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
				label := fmt.Sprintf("%s seed=%d family=%d", a.Name, seed, fi)
				s, err := a.Run(context.Background(), in, new(core.Scratch))
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
