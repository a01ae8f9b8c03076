package busytime_test

// One benchmark per experiment (E1–E10, see DESIGN.md §4): each bench
// regenerates the corresponding table of the reproduction at reduced trial
// counts, so `go test -bench=.` exercises the entire harness. `busysched
// experiments` prints the full tables.

import (
	"context"
	"runtime"
	"testing"

	"busytime"
	"busytime/internal/algo"
	"busytime/internal/algo/firstfit"
	"busytime/internal/core"
	"busytime/internal/experiments"
	"busytime/internal/generator"
)

// registered returns the named registry row — the entry point the Solver
// runs — as a schedule function on sc. The rows used here accept every
// valid instance, so an error panics.
func registered(name string) func(*core.Instance, *core.Scratch) *core.Schedule {
	a, _ := algo.Lookup(name)
	return func(in *core.Instance, sc *core.Scratch) *core.Schedule {
		s, err := a.Run(context.Background(), in, sc)
		if err != nil {
			panic(err)
		}
		return s
	}
}

// freshRow is registered(name) on a cold Scratch per call.
func freshRow(name string) func(*core.Instance) *core.Schedule {
	run := registered(name)
	return func(in *core.Instance) *core.Schedule { return run(in, new(core.Scratch)) }
}

// benchCfg keeps per-iteration work bounded; the experiment structure
// (workloads, algorithms, references) is identical to the full run.
var benchCfg = experiments.Config{Trials: 6, Seed: 1, LargeN: 400}

func runExperiment(b *testing.B, run func(experiments.Config) (*experiments.Result, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := run(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Metrics) == 0 {
			b.Fatal("experiment reported no metrics")
		}
	}
}

func BenchmarkE1FirstFitGeneral(b *testing.B)   { runExperiment(b, experiments.E1FirstFitGeneral) }
func BenchmarkE2Fig4LowerBound(b *testing.B)    { runExperiment(b, experiments.E2Fig4) }
func BenchmarkE3ProperGreedy(b *testing.B)      { runExperiment(b, experiments.E3ProperGreedy) }
func BenchmarkE4BoundedLength(b *testing.B)     { runExperiment(b, experiments.E4BoundedLength) }
func BenchmarkE5Clique(b *testing.B)            { runExperiment(b, experiments.E5Clique) }
func BenchmarkE6LowerBounds(b *testing.B)       { runExperiment(b, experiments.E6LowerBounds) }
func BenchmarkE7Optical(b *testing.B)           { runExperiment(b, experiments.E7Optical) }
func BenchmarkE8MachineMin(b *testing.B)        { runExperiment(b, experiments.E8MachineMin) }
func BenchmarkE9ProperAdversarial(b *testing.B) { runExperiment(b, experiments.E9ProperAdversarial) }
func BenchmarkE10Demand(b *testing.B)           { runExperiment(b, experiments.E10Demand) }

// Design-choice ablations (DESIGN.md §4, "Ablations").

func BenchmarkA1Ordering(b *testing.B)     { runExperiment(b, experiments.A1Ordering) }
func BenchmarkA3LocalSearch(b *testing.B)  { runExperiment(b, experiments.A3LocalSearch) }
func BenchmarkA4Online(b *testing.B)       { runExperiment(b, experiments.A4Online) }
func BenchmarkA5Laminar(b *testing.B)      { runExperiment(b, experiments.A5Laminar) }
func BenchmarkA6MachineIndex(b *testing.B) { runExperiment(b, experiments.A6MachineIndex) }

// Scaling micro-benchmarks of the core algorithm at increasing sizes, against
// the linear reference that uses none of the kernel's structures.

func benchFirstFitN(b *testing.B, n int, run func(*core.Instance) *core.Schedule) {
	in := generator.General(7, n, 4, float64(n), 30)
	b.ReportAllocs()
	b.ResetTimer()
	var s *core.Schedule
	for i := 0; i < b.N; i++ {
		s = run(in)
	}
	reportWork(b, s)
}

func BenchmarkFirstFitN1e2(b *testing.B) { benchFirstFitN(b, 100, firstfit.Schedule) }
func BenchmarkFirstFitN1e3(b *testing.B) { benchFirstFitN(b, 1000, firstfit.Schedule) }
func BenchmarkFirstFitN1e4(b *testing.B) { benchFirstFitN(b, 10000, firstfit.Schedule) }
func BenchmarkFirstFitN1e5(b *testing.B) { benchFirstFitN(b, 100000, firstfit.Schedule) }

func BenchmarkFirstFitLinearN1e4(b *testing.B) { benchFirstFitN(b, 10000, firstfit.ScheduleLinear) }

// Kernel BestFit at scale (the indexed argmin over span deltas).

func BenchmarkBestFitN1e4(b *testing.B) { benchFirstFitN(b, 10000, freshRow("bestfit")) }
func BenchmarkBestFitN1e5(b *testing.B) { benchFirstFitN(b, 100000, freshRow("bestfit")) }

// Online replays at scale: the online-firstfit row (LowestFit in arrival
// order) through the kernel, fresh and through a recycled arena (the
// competitive-ratio sweep's steady state).

func BenchmarkOnlineN1e5(b *testing.B) {
	benchFirstFitN(b, 100000, freshRow("online-firstfit"))
}

func BenchmarkOnlinePooledN1e5(b *testing.B) {
	in := generator.General(7, 100000, 4, 100000, 30)
	sc := new(core.Scratch)
	run := registered("online-firstfit")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := run(in, sc); s.NumMachines() == 0 {
			b.Fatal("empty schedule")
		}
	}
}

// Pooled-arena variants: the same workload scheduled through one recycled
// core.Scratch, a warm Solver worker's steady state. After the first iteration
// warms the arena, runs perform zero schedule-state allocations (see
// core.TestFirstFitAssignZeroAllocSteadyState for the hard gate).
func benchFirstFitPooledN(b *testing.B, n int) {
	in := generator.General(7, n, 4, float64(n), 30)
	sc := new(core.Scratch)
	run := registered("firstfit")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := run(in, sc)
		if s.NumMachines() == 0 {
			b.Fatal("empty schedule")
		}
	}
}

func BenchmarkFirstFitPooledN1e4(b *testing.B) { benchFirstFitPooledN(b, 10000) }
func BenchmarkFirstFitPooledN1e5(b *testing.B) { benchFirstFitPooledN(b, 100000) }

// Public warm path: a single-worker Solver session re-solving one instance,
// which must ride exactly the internal pooled path (same recycled arena,
// cached bounds and orders) — BenchmarkSolverWarmN1e5 is pinned to the
// allocs/op of BenchmarkFirstFitPooledN1e5 by TestSolverWarmMatchesPooled
// and the BENCH_5 record.
func benchSolverWarmN(b *testing.B, n int, algorithm string) {
	benchSolverWarm(b, generator.General(7, n, 4, float64(n), 30), algorithm)
}

func benchSolverWarm(b *testing.B, in *core.Instance, algorithm string) {
	s, err := busytime.New(busytime.WithAlgorithm(algorithm), busytime.WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Solve(ctx, in); err != nil { // warm the arena
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res busytime.Result
	for i := 0; i < b.N; i++ {
		res, err = s.Solve(ctx, in)
		if err != nil {
			b.Fatal(err)
		}
		if res.Machines == 0 {
			b.Fatal("empty schedule")
		}
	}
	reportWork(b, res.Schedule)
}

func BenchmarkSolverWarmN1e4(b *testing.B)        { benchSolverWarmN(b, 10000, "firstfit") }
func BenchmarkSolverWarmN1e5(b *testing.B)        { benchSolverWarmN(b, 100000, "firstfit") }
func BenchmarkSolverWarmBestFitN1e5(b *testing.B) { benchSolverWarmN(b, 100000, "bestfit") }

// The benchmark ledger's optical-lightpath input (the paper's §4.2
// application), solved warm by FirstFit, as the ledger does, and by BestFit,
// which no ledger workload runs.
func BenchmarkSolverWarmLightpath17k(b *testing.B) {
	benchSolverWarm(b, lightpath17k(b), "firstfit")
}
func BenchmarkSolverWarmLightpath17kBestFit(b *testing.B) {
	benchSolverWarm(b, lightpath17k(b), "bestfit")
}

// The benchmark ledger's offline-dense input, solved warm by FirstFit, as the
// ledger does, and by BestFit: one component whose placements the
// saturation bitmap's skips and marks dominate.
func BenchmarkSolverWarmDense100k(b *testing.B) {
	benchSolverWarm(b, offlineDense100k(b), "firstfit")
}
func BenchmarkSolverWarmDense100kBestFit(b *testing.B) {
	benchSolverWarm(b, offlineDense100k(b), "bestfit")
}

// The batch fan-out of one warm session: its arenas persist across
// iterations, against BenchmarkBatchFirstFit, which builds a fresh Solver
// (cold arenas) per iteration.
func BenchmarkSolverBatchFirstFit(b *testing.B) {
	batch := batch100k()
	s, err := busytime.New(busytime.WithAlgorithm("firstfit"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.SolveBatch(context.Background(), batch)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(batch) {
			b.Fatalf("got %d results, want %d", len(res), len(batch))
		}
	}
}

func benchBestFitPooledN(b *testing.B, n int) {
	in := generator.General(7, n, 4, float64(n), 30)
	sc := new(core.Scratch)
	run := registered("bestfit")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := run(in, sc)
		if s.NumMachines() == 0 {
			b.Fatal("empty schedule")
		}
	}
}

func BenchmarkBestFitPooledN1e4(b *testing.B) { benchBestFitPooledN(b, 10000) }
func BenchmarkBestFitPooledN1e5(b *testing.B) { benchBestFitPooledN(b, 100000) }

// Batch fan-out benchmarks (DESIGN.md §5): the same batch of seeded 100k-job
// instances scheduled through SolveBatch versus a naive sequential loop.
// The fan-out should beat the loop by roughly the core count;
// TestSolveBatchDeterministicAcrossWorkers guarantees the outputs are
// identical at every worker count.

// batch100k builds one 100k-job instance per available core (min 4) across
// the large-scale scenario generators.
func batch100k() []*core.Instance {
	k := runtime.GOMAXPROCS(0)
	if k < 4 {
		k = 4
	}
	out := make([]*core.Instance, 0, k)
	for i := 0; i < k; i++ {
		seed := int64(100 + i)
		switch i % 3 {
		case 0:
			out = append(out, generator.General(seed, 100000, 8, 100000, 30))
		case 1:
			out = append(out, generator.CloudBurst(seed, 100000, 8, 50000, 15, 12, 0.5))
		default:
			out = append(out, generator.LightpathWave(seed, 50, 2000, 8, 2000, 800, 400))
		}
	}
	return out
}

// benchBatchCold runs the batch through SolveBatch on a fresh Solver per
// iteration, so every iteration starts from cold arenas.
func benchBatchCold(b *testing.B, algorithm string, batch []*core.Instance) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := busytime.New(busytime.WithAlgorithm(algorithm))
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.SolveBatch(context.Background(), batch)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(batch) {
			b.Fatalf("got %d results, want %d", len(res), len(batch))
		}
		for _, r := range res {
			if r.Err != "" {
				b.Fatalf("instance %d: %s", r.Index, r.Err)
			}
		}
	}
}

func BenchmarkBatchFirstFit(b *testing.B) { benchBatchCold(b, "firstfit", batch100k()) }

func BenchmarkBatchFirstFitSequential(b *testing.B) {
	batch := batch100k()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The naive loop the fan-out replaces: fresh schedule state per
		// instance, one instance at a time.
		for _, in := range batch {
			s := firstfit.Schedule(in)
			if s.NumMachines() == 0 {
				b.Fatal("empty schedule")
			}
			_ = s.Cost()
			_ = core.BestBound(in)
		}
	}
}

func BenchmarkBatchPortfolio(b *testing.B) {
	batch := make([]*core.Instance, 16)
	for i := range batch {
		batch[i] = generator.General(int64(200+i), 400, 4, 400, 30)
	}
	benchBatchCold(b, "portfolio", batch)
}

// The decompose–solve–merge path: one warm Solver session re-solving a
// multi-component clustered instance. The Clustered100k ladder has ~100k
// jobs across 16 time-disjoint clusters; the Many50k benches (FirstFit, the
// session default, and BestFit) have the bench ledger's offline-clustered
// shape, 4,167 clusters of 12 jobs (g 3, cluster span 9, jobs at most 6
// long), where chunks of many components keep the per-unit schedule resets
// off the critical path. The Seq variants are the plain sequential path;
// the Intra variants enable WithIntraWorkers so chunks solve concurrently
// on the session's spare arenas. Extra options (an algorithm) follow the
// worker counts. On a multi-core host the ladder shows the intra-instance
// speedup; determinism is pinned separately (the decomposed schedule is
// bitwise-identical, see intra_test.go), so the bench only checks machine
// count. BENCH_6.json records the measured Clustered100k numbers together
// with the host core count — the scaling gate is only meaningful when
// GOMAXPROCS exceeds the intra budget.
func benchDecompClustered(b *testing.B, in *core.Instance, workers, intra int, extra ...busytime.Option) {
	opts := append([]busytime.Option{busytime.WithWorkers(workers)}, extra...)
	if intra != 1 {
		opts = append(opts, busytime.WithIntraWorkers(intra))
	}
	s, err := busytime.New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Solve(ctx, in); err != nil { // warm the arenas
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Solve(ctx, in)
		if err != nil {
			b.Fatal(err)
		}
		if res.Machines == 0 {
			b.Fatal("empty schedule")
		}
	}
}

// clustered100k is the 16-cluster shape of the Clustered100k ladder.
func clustered100k() *core.Instance { return generator.Clustered(7, 16, 6250, 4, 5000, 40) }

// many50k is the bench ledger's offline-clustered shape at seed 1: 50,004
// jobs in about 4.3k components. Two intra workers solve it as 32 chunks of
// about 1.5k jobs and 135 components each, and a chunk run places its
// components one after another, each in the algorithm's own order.
func many50k() *core.Instance { return generator.Clustered(1, 4167, 12, 3, 9, 6) }

func BenchmarkDecompClustered100kSeq(b *testing.B) { benchDecompClustered(b, clustered100k(), 1, 1) }
func BenchmarkDecompClustered100kIntra2(b *testing.B) {
	benchDecompClustered(b, clustered100k(), 2, 2)
}
func BenchmarkDecompClustered100kIntra4(b *testing.B) {
	benchDecompClustered(b, clustered100k(), 4, 4)
}
func BenchmarkDecompMany50kSeq(b *testing.B)    { benchDecompClustered(b, many50k(), 1, 1) }
func BenchmarkDecompMany50kIntra2(b *testing.B) { benchDecompClustered(b, many50k(), 2, 2) }
func BenchmarkDecompMany50kBestFitSeq(b *testing.B) {
	benchDecompClustered(b, many50k(), 1, 1, busytime.WithAlgorithm("bestfit"))
}
func BenchmarkDecompMany50kBestFitIntra2(b *testing.B) {
	benchDecompClustered(b, many50k(), 2, 2, busytime.WithAlgorithm("bestfit"))
}

// The time-sharding ladder: one warm Solver session re-solving a dense
// single-component instance (100k jobs, no positive-length gap anywhere) —
// the regime where component decomposition starves and WithTimeSharding is
// the only parallel path. Seq is the plain sequential solve; the Shard
// variants opt in with k shards on k workers. Sharded results are feasible
// but not bitwise-identical (see WithTimeSharding), so the bench checks
// machine count only; TestShardedSolveValidAndBounded pins validity and the
// cost envelope. BENCH_7.json records measured numbers with the host core
// count — on a single-core host the ladder shows the sharding overhead
// (cut selection, scatter and merge), not a speedup.
func benchShardDense(b *testing.B, workers, shards int) {
	in := generator.General(7, 100000, 4, 10000, 30)
	opts := []busytime.Option{busytime.WithWorkers(workers)}
	if shards != 1 {
		opts = append(opts, busytime.WithTimeSharding(shards))
	}
	s, err := busytime.New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// Warm every arena: shard↔arena pairing rotates through the pool between
	// Solves, so each arena must see both the largest shard and the merged
	// whole before steady state is reached.
	for w := 0; w < 2*workers+2; w++ {
		res, err := s.Solve(ctx, in)
		if err != nil {
			b.Fatal(err)
		}
		if shards > 1 && res.Decomp.Shards < 2 {
			b.Fatalf("sharding did not engage: %+v", res.Decomp)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Solve(ctx, in)
		if err != nil {
			b.Fatal(err)
		}
		if res.Machines == 0 {
			b.Fatal("empty schedule")
		}
	}
}

func BenchmarkShardDense100kSeq(b *testing.B)    { benchShardDense(b, 1, 1) }
func BenchmarkShardDense100kShard2(b *testing.B) { benchShardDense(b, 2, 2) }
func BenchmarkShardDense100kShard4(b *testing.B) { benchShardDense(b, 4, 4) }

// The rolling-horizon session under an unbounded arrival stream: one op is
// one public PlaceDemand (demand ≤ 4 on g = 8, ~1k live jobs), with one in
// eight arrivals followed by an early Release of a recent job — the
// steady-state mix of arrivals, departures and window compactions. The
// stream (1e6 pre-generated arrivals) wraps by shifting the clock, so any
// -benchtime keeps arrival order legal; the warm-up before the timer takes
// the session past its growth phase, and the CI gate pins allocs/op to the
// checked-in budget of zero (ci/alloc-budget-online-stream.txt).
func BenchmarkOnlineStream1e6(b *testing.B) { benchOnlineStream(b, 1024) }

// BenchmarkOnlineStreamLive1e4 is the same stream mix at ten times the live
// population (~3k machines open), where a per-placement machine scan would
// show; CI holds it to the same zero allocs/op budget.
func BenchmarkOnlineStreamLive1e4(b *testing.B) { benchOnlineStream(b, 10_000) }

func benchOnlineStream(b *testing.B, live int) {
	d := warmStreamDriver(b, live)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}
