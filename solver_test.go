package busytime_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"busytime"
	"busytime/internal/core"
	"busytime/internal/generator"
)

// almostEq compares busy times up to last-ulp drift: incremental cost
// accounting (span deltas summed during placement) and recomputation from
// pieces round differently.
func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// tinyUniversal returns an instance accepted by every registered algorithm:
// it is simultaneously a clique (all intervals share a point) and laminar
// (nested), small enough for exact, and valid for every heuristic.
func tinyUniversal() *busytime.Instance {
	in := unitInstance(2,
		ival(0, 4),
		ival(1, 3),
		ival(1.5, 2.5),
	)
	in.Name = "tiny-universal"
	return in
}

// TestSolverEveryRegisteredAlgorithm is the acceptance gate of the API
// redesign: every name in the registry must be constructible and solvable
// through the public Solver, with a verified feasible schedule.
func TestSolverEveryRegisteredAlgorithm(t *testing.T) {
	algos := busytime.Algorithms()
	if len(algos) < 15 {
		t.Fatalf("registry lists %d algorithms, want ≥ 15", len(algos))
	}
	for _, a := range algos {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			s, err := busytime.New(busytime.WithAlgorithm(a.Name), busytime.WithVerify(true))
			if err != nil {
				t.Fatalf("New(%q): %v", a.Name, err)
			}
			res, err := s.Solve(context.Background(), tinyUniversal())
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if res.Machines < 1 || res.Cost <= 0 {
				t.Errorf("degenerate result: machines=%d cost=%v", res.Machines, res.Cost)
			}
			if res.Cost < res.LowerBound()-1e-9 {
				t.Errorf("cost %v below lower bound %v", res.Cost, res.LowerBound())
			}
			if res.Algorithm != a.Name {
				t.Errorf("Result.Algorithm = %q, want %q", res.Algorithm, a.Name)
			}
		})
	}
}

// goldenRun is one recorded solve: the machine count and the exact bits of
// the cost.
type goldenRun struct {
	machines int
	cost     uint64
}

// TestAlgorithmsGolden pins every registered name's metadata and output to
// recorded values: the Algorithms() entry, and the machine count and
// bitwise cost on tinyUniversal and on one general instance (nil where the
// algorithm's class precondition or component limit rejects it). A rewiring
// of the registry that changes any row's name, flags, schedule or cost by a
// single ulp fails here.
func TestAlgorithmsGolden(t *testing.T) {
	want := []struct {
		info    busytime.AlgorithmInfo
		tiny    goldenRun
		general *goldenRun
	}{
		{busytime.AlgorithmInfo{"bestfit", "BestFit by minimal busy-time increase, longest job first (indexed kernel argmin)", "run-boundary", true, true},
			goldenRun{2, 0x4014000000000000}, &goldenRun{11, 0x408dac25139f154e}},
		{busytime.AlgorithmInfo{"boundedlength", "segment by d then solve per segment (§3.2, 2+ε approximation)", "run-boundary", false, false},
			goldenRun{2, 0x4014000000000000}, &goldenRun{49, 0x409069f8db50c34f}},
		{busytime.AlgorithmInfo{"clique", "group-by-distance algorithm for clique instances (Appendix, 2-approximation)", "run-boundary", false, false},
			goldenRun{2, 0x4014000000000000}, nil},
		{busytime.AlgorithmInfo{"exact", "optimal schedule by branch and bound (small instances only)", "mid-run", true, false},
			goldenRun{2, 0x4014000000000000}, nil},
		{busytime.AlgorithmInfo{"firstfit", "FirstFit by non-increasing length (§2.1, 4-approximation), indexed machine selection", "run-boundary", true, true},
			goldenRun{2, 0x4014000000000000}, &goldenRun{11, 0x408dcec7bf3a7ec0}},
		{busytime.AlgorithmInfo{"firstfit+ls", "FirstFit (§2.1) followed by move/merge local search to a local optimum (ablation A3)", "run-boundary", false, false},
			goldenRun{2, 0x4014000000000000}, &goldenRun{11, 0x408d70bdcf2ee051}},
		{busytime.AlgorithmInfo{"firstfit-start", "FirstFit scanning jobs by start time (no length sort)", "run-boundary", true, true},
			goldenRun{2, 0x4014000000000000}, &goldenRun{11, 0x408e0ce48617e466}},
		{busytime.AlgorithmInfo{"laminar", "exact level-grouping for laminar instances (optimal, polynomial)", "run-boundary", false, false},
			goldenRun{2, 0x4014000000000000}, nil},
		{busytime.AlgorithmInfo{"machine-min", "⌈k/g⌉-machine schedule from optimal coloring (§1.1 remark)", "run-boundary", false, false},
			goldenRun{2, 0x4014000000000000}, &goldenRun{11, 0x408e0ce48617e46a}},
		{busytime.AlgorithmInfo{"nextfit", "NextFit in start order (single open machine)", "run-boundary", false, false},
			goldenRun{2, 0x4014000000000000}, &goldenRun{75, 0x4092c4fd72861118}},
		{busytime.AlgorithmInfo{"online-bestfit", "online bestfit by arrival order (jobs revealed at start times)", "run-boundary", true, true},
			goldenRun{2, 0x4014000000000000}, &goldenRun{11, 0x408c5c880f33c4f8}},
		{busytime.AlgorithmInfo{"online-firstfit", "online firstfit by arrival order (jobs revealed at start times)", "run-boundary", true, true},
			goldenRun{2, 0x4014000000000000}, &goldenRun{11, 0x408e0ce48617e466}},
		{busytime.AlgorithmInfo{"online-nextfit", "online nextfit by arrival order (jobs revealed at start times)", "run-boundary", false, false},
			goldenRun{2, 0x4014000000000000}, &goldenRun{75, 0x4092c4fd72861118}},
		{busytime.AlgorithmInfo{"portfolio", "best of all applicable algorithms plus local search", "run-boundary", false, false},
			goldenRun{2, 0x4014000000000000}, &goldenRun{11, 0x408d6de7411549e6}},
		{busytime.AlgorithmInfo{"properfit", "NextFit by start time for proper instances (§3.1, 2-approximation)", "run-boundary", false, false},
			goldenRun{2, 0x4014000000000000}, &goldenRun{75, 0x4092c4fd72861118}},
		{busytime.AlgorithmInfo{"randomfit", "FirstFit on a seeded random job order", "run-boundary", true, true},
			goldenRun{2, 0x4018000000000000}, &goldenRun{12, 0x4090db8681d2ee76}},
	}
	got := busytime.Algorithms()
	if len(got) != len(want) {
		t.Fatalf("Algorithms() lists %d names, want %d", len(got), len(want))
	}
	general := generator.General(5, 240, 3, 120, 20)
	for i, w := range want {
		if got[i] != w.info {
			t.Errorf("Algorithms()[%d] = %+v, want %+v", i, got[i], w.info)
			continue
		}
		s, err := busytime.New(busytime.WithAlgorithm(w.info.Name), busytime.WithVerify(true))
		if err != nil {
			t.Fatalf("New(%q): %v", w.info.Name, err)
		}
		for _, tc := range []struct {
			in   *busytime.Instance
			want *goldenRun
		}{{tinyUniversal(), &w.tiny}, {general, w.general}} {
			res, err := s.Solve(context.Background(), tc.in)
			switch {
			case tc.want == nil && err == nil:
				t.Errorf("%s on %s: accepted, want a rejection", w.info.Name, tc.in.Name)
			case tc.want == nil:
			case err != nil:
				t.Errorf("%s on %s: %v", w.info.Name, tc.in.Name, err)
			case res.Machines != tc.want.machines || math.Float64bits(res.Cost) != tc.want.cost:
				t.Errorf("%s on %s: %d machines, cost %v (%#x); want %d machines, cost %v (%#x)",
					w.info.Name, tc.in.Name, res.Machines, res.Cost, math.Float64bits(res.Cost),
					tc.want.machines, math.Float64frombits(tc.want.cost), tc.want.cost)
			}
		}
	}
}

// TestMachineMinColoringMemory bounds the memory of machine-min's coloring
// on a dense clique: 4,000 unit jobs that all share a point, so the
// intersection graph is complete and any structure holding its edges, such
// as adjacency lists, costs Θ(n²). Coloring by one sweep needs O(n).
func TestMachineMinColoringMemory(t *testing.T) {
	const n, g = 4000, 8
	ivs := make([]busytime.Interval, n)
	for i := range ivs {
		ivs[i] = ival(float64(i), float64(n+i))
	}
	in := unitInstance(g, ivs...)
	s, err := busytime.New(busytime.WithAlgorithm("machine-min"))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := s.Solve(context.Background(), in)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if perJob := (after.TotalAlloc - before.TotalAlloc) / n; perJob > 4<<10 {
		t.Errorf("machine-min allocated %d B per job, want ≤ 4 KiB", perJob)
	}
	if want := (n + g - 1) / g; res.Machines != want {
		t.Errorf("machine-min used %d machines, want ⌈MaxDepth/g⌉ = %d", res.Machines, want)
	}
}

func TestSolverWarmPathReusesArena(t *testing.T) {
	in := generator.General(11, 2000, 4, 500, 20)
	s, err := busytime.New(busytime.WithAlgorithm("firstfit"), busytime.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if first.Arena.Warm {
		t.Error("first solve reported a warm arena")
	}
	if first.Arena.SetupAllocs == 0 {
		t.Error("first solve reported zero setup allocations")
	}
	second, err := s.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Arena.Warm {
		t.Error("second solve did not report a warm arena")
	}
	if second.Arena.SetupAllocs != 0 {
		t.Errorf("warm re-solve performed %d arena setup allocations, want 0", second.Arena.SetupAllocs)
	}
	if second.Cost != first.Cost || second.Machines != first.Machines {
		t.Errorf("warm solve changed the result: %v/%d vs %v/%d",
			second.Cost, second.Machines, first.Cost, first.Machines)
	}
}

// TestSolverWarmMatchesPooled pins the public warm path to the internal
// pooled path: a warm single-worker Solver must perform (almost) exactly
// the allocations of the firstfit row's Run on a warm core.Scratch — the
// facade may not add per-call garbage.
func TestSolverWarmMatchesPooled(t *testing.T) {
	in := generator.General(7, 5000, 4, 5000, 30)
	ctx := context.Background()

	s, err := busytime.New(busytime.WithAlgorithm("firstfit"), busytime.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(ctx, in); err != nil {
		t.Fatal(err)
	}
	public := testing.AllocsPerRun(5, func() {
		if _, err := s.Solve(ctx, in); err != nil {
			t.Fatal(err)
		}
	})

	sc := new(core.Scratch)
	pooled := registered("firstfit")
	pooled(in, sc)
	internal := testing.AllocsPerRun(5, func() {
		pooled(in, sc)
	})

	if public > internal+4 {
		t.Errorf("public warm Solve allocates %.0f/op, internal pooled path %.0f/op (budget +4)",
			public, internal)
	}
}

// TestWarmExactSolveAllocs bounds the Go-heap allocations of a warm
// single-worker exact Solve on 40 small components: the branch and bound
// builds its bound's covered union and events in the search's own buffers
// and reuses the machine records it opened, so the allocations left are
// per component, not per search node (about 200,000 when every node
// allocated). One searcher serves every component and runs the FirstFit
// warm starts on one arena, so what is left per component is mostly its
// sub-instance and that instance's derived data: about 840 objects per
// Solve, against 4,471 when each component built its own searcher and
// warm-start schedule.
func TestWarmExactSolveAllocs(t *testing.T) {
	const ceiling = 1500
	in := generator.Clustered(3, 40, 12, 3, 10, 4)
	s, err := busytime.New(busytime.WithAlgorithm("exact"), busytime.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	solve := func() {
		if _, err := s.Solve(ctx, in); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	if got := testing.AllocsPerRun(3, solve); got > ceiling {
		t.Errorf("warm exact Solve allocates %v objects/op; want ≤ %d", got, ceiling)
	}
}

// TestSolveCancelExact proves ctx cancellation reaches inside the
// exponential search: a dense 28-job g=2 instance takes far longer than the
// test budget to solve exactly (>3s measured), yet a cancel after 50ms
// returns context.Canceled well within a second.
func TestSolveCancelExact(t *testing.T) {
	in := generator.General(3, 28, 2, float64(28)/3, 14)
	s, err := busytime.New(busytime.WithAlgorithm("exact"), busytime.WithExactLimit(28))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = s.Solve(ctx, in)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Solve returned %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestSolveBatchCancel cancels a batch mid-flight: SolveBatch must return
// context.Canceled promptly — workers skip unclaimed instances and stop
// waiting for an arena — and drain its worker goroutines.
func TestSolveBatchCancel(t *testing.T) {
	batch := make([]*busytime.Instance, 64)
	for i := range batch {
		batch[i] = generator.General(int64(i+1), 20000, 4, 20000, 30)
	}
	s, err := busytime.New(busytime.WithAlgorithm("firstfit"), busytime.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := s.SolveBatch(ctx, batch); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveBatch returned %v, want context.Canceled", err)
	}
	// The batch fan-out waits for its workers before returning, so no
	// goroutine may outlive the call; allow scheduler jitter to settle.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+1 {
		t.Errorf("goroutines leaked: %d before, %d after cancellation", before, after)
	}
}

func TestSolveStreamCancel(t *testing.T) {
	s, err := busytime.New(busytime.WithAlgorithm("firstfit"), busytime.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	i := 0
	next := func() (*busytime.Instance, bool) {
		i++
		if i == 3 {
			cancel() // cancel between shards; the stream would be endless
		}
		return generator.General(int64(i), 5000, 4, 5000, 30), true
	}
	if _, err := s.SolveStream(ctx, next); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveStream returned %v, want context.Canceled", err)
	}
}

func TestSolveBatchMatchesSolve(t *testing.T) {
	batch := make([]*busytime.Instance, 9)
	for i := range batch {
		batch[i] = generator.General(int64(40+i), 400, 3, 200, 25)
	}
	s, err := busytime.New(busytime.WithAlgorithm("bestfit"), busytime.WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.SolveBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(batch) {
		t.Fatalf("got %d results, want %d", len(results), len(batch))
	}
	for i, r := range results {
		if r.Err != "" {
			t.Fatalf("instance %d failed: %s", i, r.Err)
		}
		res, err := s.Solve(context.Background(), batch[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.Cost != res.Cost || r.Machines != res.Machines {
			t.Errorf("instance %d: batch %v/%d vs solve %v/%d",
				i, r.Cost, r.Machines, res.Cost, res.Machines)
		}
		if r.LowerBound != res.LowerBound() {
			t.Errorf("instance %d: batch LB %v vs solve LB %v", i, r.LowerBound, res.LowerBound())
		}
	}
	sum := busytime.SummarizeBatch(results)
	if sum.Runs != len(batch) {
		t.Errorf("summary runs %d, want %d", sum.Runs, len(batch))
	}
}

// TestSolveBatchHonorsSessionConfig pins SolveBatch to the session's full
// configuration: options that route around the registry (exact limits,
// lookahead buffers) must produce the same outcome as Solve, never fall
// back to the registered defaults.
func TestSolveBatchHonorsSessionConfig(t *testing.T) {
	three := unitInstance(2,
		ival(0, 4), ival(1, 5), ival(2, 6))

	s, err := busytime.New(busytime.WithAlgorithm("exact"), busytime.WithExactLimit(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), three); err == nil {
		t.Fatal("Solve accepted a 3-job component with limit 2")
	}
	batch, err := s.SolveBatch(context.Background(), []*busytime.Instance{three})
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Err == "" || !strings.Contains(batch[0].Err, "exceeds limit 2") {
		t.Errorf("SolveBatch ignored WithExactLimit: err = %q", batch[0].Err)
	}

	in := generator.General(23, 300, 3, 150, 20)
	offline, err := busytime.New(busytime.WithAlgorithm("firstfit"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := offline.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	look, err := busytime.New(
		busytime.WithAlgorithm("online-firstfit"), busytime.WithLookahead(in.N()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := look.SolveBatch(context.Background(), []*busytime.Instance{in})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Err != "" || !almostEq(got[0].Cost, want.Cost) {
		t.Errorf("SolveBatch ignored WithLookahead: cost %v err %q, want offline FirstFit %v",
			got[0].Cost, got[0].Err, want.Cost)
	}
}

func TestOnlineRejectsLookaheadSession(t *testing.T) {
	s, err := busytime.New(busytime.WithAlgorithm("online-firstfit"), busytime.WithLookahead(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Online(2, "firstfit"); err == nil || !strings.Contains(err.Error(), "WithLookahead") {
		t.Errorf("lookahead session accepted: %v", err)
	}
}

func TestSolverOptionErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []busytime.Option
		want string
	}{
		{"unknown algorithm", []busytime.Option{busytime.WithAlgorithm("nope")}, "unknown algorithm"},
		{"empty algorithm", []busytime.Option{busytime.WithAlgorithm("")}, "empty name"},
		{"lookahead offline", []busytime.Option{busytime.WithLookahead(4)}, "online-"},
		{"lookahead zero", []busytime.Option{busytime.WithAlgorithm("online-firstfit"), busytime.WithLookahead(0)}, "want ≥ 1"},
		{"exact limit elsewhere", []busytime.Option{busytime.WithExactLimit(20)}, "exact"},
		{"length bound elsewhere", []busytime.Option{busytime.WithLengthBound(2)}, "boundedlength"},
		{"length bound NaN", []busytime.Option{busytime.WithAlgorithm("boundedlength"), busytime.WithLengthBound(math.NaN())}, "want finite"},
		{"length bound +Inf", []busytime.Option{busytime.WithAlgorithm("boundedlength"), busytime.WithLengthBound(math.Inf(1))}, "want finite"},
		{"negative workers", []busytime.Option{busytime.WithWorkers(-1)}, "want ≥ 0"},
		{"workers above cap", []busytime.Option{busytime.WithWorkers(1 << 50)}, "want ≤ 4096"},
		{"workers just above cap", []busytime.Option{busytime.WithWorkers(1<<12 + 1)}, "want ≤ 4096"},
		{"window above cap", []busytime.Option{busytime.WithWindow(1 << 50)}, "WithWindow"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := busytime.New(tc.opts...); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New(%s) error = %v, want containing %q", tc.name, err, tc.want)
			}
		})
	}
}

// TestSolveRejectionErrors pins the exact error text of every class
// rejection as Solve returns it and as SolveBatch stores it in Err: an
// instance outside an algorithm's class is an error, never a panic.
func TestSolveRejectionErrors(t *testing.T) {
	build := func(g int, ivs ...busytime.Interval) *busytime.Instance {
		in, err := busytime.BuildInstance(g, busytime.UnitJobs(ivs...)...)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	// Twenty jobs sharing [19, 20]: one component above exact's limits.
	var dense []busytime.Interval
	for i := 0; i < 20; i++ {
		dense = append(dense, busytime.Interval{Start: float64(i), End: float64(i) + 20})
	}
	nonClique := build(2, busytime.Interval{Start: 0, End: 1}, busytime.Interval{Start: 5, End: 6})
	crossing := build(2, busytime.Interval{Start: 0, End: 5}, busytime.Interval{Start: 3, End: 8})
	long := build(1, busytime.Interval{Start: 0, End: 5})
	big := build(2, dense...)
	// The same component plus a one-job component after a gap: two
	// components, so a session with a spare arena takes the decomposed path.
	bigAndSmall := build(2, append(dense, busytime.Interval{Start: 100, End: 101})...)
	cases := []struct {
		name string
		opts []busytime.Option
		in   *busytime.Instance
		want string
	}{
		{"clique", []busytime.Option{busytime.WithAlgorithm("clique")}, nonClique,
			`busytime: clique: cliquealgo: instance "" is not a clique`},
		{"laminar", []busytime.Option{busytime.WithAlgorithm("laminar")}, crossing,
			`busytime: laminar: laminar: instance "" is not laminar`},
		{"boundedlength", []busytime.Option{busytime.WithAlgorithm("boundedlength"), busytime.WithLengthBound(1)}, long,
			"busytime: boundedlength: boundedlength: job 0 length 5 exceeds d = 1"},
		{"exact", []busytime.Option{busytime.WithAlgorithm("exact")}, big,
			"busytime: exact: exact: component with 20 jobs exceeds limit 18"},
		{"exact limit", []busytime.Option{busytime.WithAlgorithm("exact"), busytime.WithExactLimit(5)}, big,
			"busytime: exact: exact: component with 20 jobs exceeds limit 5"},
		{"exact intra", []busytime.Option{busytime.WithAlgorithm("exact"), busytime.WithIntraWorkers(2)}, big,
			"busytime: exact: exact: component with 20 jobs exceeds limit 18"},
		{"exact decomposed", []busytime.Option{busytime.WithAlgorithm("exact"), busytime.WithWorkers(2), busytime.WithIntraWorkers(2)}, bigAndSmall,
			"busytime: exact: exact: component with 20 jobs exceeds limit 18"},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := busytime.New(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Solve(ctx, tc.in); err == nil || err.Error() != tc.want {
				t.Errorf("Solve error = %v, want %q", err, tc.want)
			}
			res, err := s.SolveBatch(ctx, []*busytime.Instance{tc.in})
			if err != nil {
				t.Fatal(err)
			}
			if res[0].Err != tc.want {
				t.Errorf("SolveBatch Err = %q, want %q", res[0].Err, tc.want)
			}
		})
	}
}

func TestSolveValidatesInstance(t *testing.T) {
	s, err := busytime.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), nil); err == nil {
		t.Error("nil instance accepted")
	}
	bad := &busytime.Instance{G: 0, Jobs: []busytime.Job{{ID: 0, Iv: busytime.Interval{Start: 0, End: 1}, Demand: 1}}}
	if _, err := s.Solve(context.Background(), bad); err == nil {
		t.Error("g=0 instance accepted")
	}
}

func TestParseIntervalAndBuildInstance(t *testing.T) {
	if _, err := busytime.ParseInterval(3, 1); err == nil {
		t.Error("reversed interval accepted")
	}
	if _, err := busytime.ParseInterval(math.NaN(), 1); err == nil {
		t.Error("NaN start accepted")
	}
	if _, err := busytime.ParseInterval(0, math.Inf(1)); err == nil {
		t.Error("infinite end accepted")
	}
	iv, err := busytime.ParseInterval(1, 3)
	if err != nil || iv.Len() != 2 {
		t.Errorf("ParseInterval(1,3) = %v, %v", iv, err)
	}

	if _, err := busytime.BuildInstance(0, busytime.UnitJobs(iv)...); err == nil {
		t.Error("g=0 accepted")
	}
	if _, err := busytime.BuildInstance(2, busytime.Job{ID: 1, Iv: iv, Demand: 3}); err == nil {
		t.Error("demand > g accepted")
	}
	if _, err := busytime.BuildInstance(2,
		busytime.Job{ID: 1, Iv: iv, Demand: 1}, busytime.Job{ID: 1, Iv: iv, Demand: 1}); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if _, err := busytime.BuildInstance(2, busytime.Job{ID: 0, Iv: busytime.Interval{Start: math.NaN(), End: 1}, Demand: 1}); err == nil {
		t.Error("NaN job interval accepted")
	}
	if _, err := busytime.BuildInstance(2, busytime.Job{ID: 0, Iv: busytime.Interval{Start: 0, End: math.Inf(1)}, Demand: 1}); err == nil {
		t.Error("infinite job interval accepted")
	}
	in, err := busytime.BuildInstance(2, busytime.UnitJobs(iv, busytime.Interval{Start: 2, End: 5})...)
	if err != nil || in.N() != 2 {
		t.Errorf("BuildInstance = %v, %v", in, err)
	}
}

func TestResultDetachSurvivesReuse(t *testing.T) {
	in := generator.General(5, 500, 4, 200, 20)
	s, err := busytime.New(busytime.WithAlgorithm("firstfit"), busytime.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	cost, machines := res.Cost, res.Machines
	busy := make([]float64, machines)
	for m := range busy {
		busy[m] = res.Schedule.MachineBusy(m)
	}
	if err := res.Detach(); err != nil {
		t.Fatal(err)
	}
	// Recycle the arena with a different instance; the detached schedule
	// must be unaffected.
	if _, err := s.Solve(context.Background(), generator.General(6, 700, 3, 300, 15)); err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(); err != nil {
		t.Errorf("detached schedule no longer verifies: %v", err)
	}
	if got := res.Schedule.Cost(); math.Float64bits(got) != math.Float64bits(cost) || res.Schedule.NumMachines() != machines {
		t.Fatalf("detached schedule changed: %v/%d, want %v/%d",
			got, res.Schedule.NumMachines(), cost, machines)
	}
	for m, want := range busy {
		if got := res.Schedule.MachineBusy(m); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("detached machine %d busy %v, want %v", m, got, want)
		}
	}
}

func TestFreshSchedulesSurviveWithoutDetach(t *testing.T) {
	in := generator.General(5, 300, 4, 150, 20)
	s, err := busytime.New(busytime.WithAlgorithm("firstfit"), busytime.WithFreshSchedules())
	if err != nil {
		t.Fatal(err)
	}
	res1, err := s.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	cost := res1.Cost
	if _, err := s.Solve(context.Background(), generator.General(9, 400, 3, 200, 10)); err != nil {
		t.Fatal(err)
	}
	if res1.Schedule.Cost() != cost {
		t.Errorf("fresh-mode schedule was recycled: cost %v, want %v", res1.Schedule.Cost(), cost)
	}
	if res1.Arena.Warm || res1.Arena.SetupAllocs != 0 {
		t.Errorf("fresh mode reported arena stats: %+v", res1.Arena)
	}
}

// TestSolverLookaheadRecoversOffline checks the semi-online ladder: with a
// full lookahead buffer the online FirstFit policy processes jobs in the
// offline order and must equal the paper's FirstFit exactly.
func TestSolverLookaheadRecoversOffline(t *testing.T) {
	in := generator.General(21, 400, 3, 200, 25)
	offline, err := busytime.New(busytime.WithAlgorithm("firstfit"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := offline.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	full, err := busytime.New(
		busytime.WithAlgorithm("online-firstfit"),
		busytime.WithLookahead(in.N()),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := full.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost || got.Machines != want.Machines {
		t.Errorf("full lookahead %v/%d != offline FirstFit %v/%d",
			got.Cost, got.Machines, want.Cost, want.Machines)
	}
	// Any k ≥ n is a full buffer, up to the largest int: the buffer is
	// sized by the jobs, not by k.
	unbounded, err := busytime.New(
		busytime.WithAlgorithm("online-firstfit"),
		busytime.WithLookahead(math.MaxInt),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err = unbounded.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost || got.Machines != want.Machines {
		t.Errorf("lookahead MaxInt %v/%d != offline FirstFit %v/%d",
			got.Cost, got.Machines, want.Cost, want.Machines)
	}
	// A small buffer must still produce a feasible (verified) schedule.
	small, err := busytime.New(
		busytime.WithAlgorithm("online-firstfit"),
		busytime.WithLookahead(4),
		busytime.WithVerify(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Solve(context.Background(), in); err != nil {
		t.Fatal(err)
	}
}

// TestOnlineSessionMatchesReplay pins the incremental OnlineSession to the
// registered online-* algorithms: feeding an instance's jobs in arrival
// order must reproduce the batch replay decision for decision.
func TestOnlineSessionMatchesReplay(t *testing.T) {
	for _, policy := range []string{"firstfit", "bestfit", "nextfit"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				in := generator.General(seed, 300, 3, 150, 20)
				replaySolver, err := busytime.New(busytime.WithAlgorithm("online-" + policy))
				if err != nil {
					t.Fatal(err)
				}
				want, err := replaySolver.Solve(context.Background(), in)
				if err != nil {
					t.Fatal(err)
				}

				s, err := busytime.New()
				if err != nil {
					t.Fatal(err)
				}
				sess, err := s.Online(in.G, policy)
				if err != nil {
					t.Fatal(err)
				}
				order := in.StartOrder()
				feedMachine := make([]int, len(order))
				for p, j := range order {
					m, err := sess.PlaceDemand(in.Jobs[j].Iv, in.Jobs[j].Demand)
					if err != nil {
						t.Fatalf("seed %d: Place job %d: %v", seed, j, err)
					}
					if m != sess.MachineOf(p) {
						t.Fatalf("MachineOf(%d) = %d, Place returned %d", p, sess.MachineOf(p), m)
					}
					feedMachine[p] = m
				}
				if !almostEq(sess.Cost(), want.Cost) || sess.Machines() != want.Machines {
					t.Fatalf("seed %d: session %v/%d != replay %v/%d",
						seed, sess.Cost(), sess.Machines(), want.Cost, want.Machines)
				}
				for p, j := range order {
					if feedMachine[p] != want.Schedule.MachineOf(int(j)) {
						t.Fatalf("seed %d: job %d on machine %d in session, %d in replay",
							seed, j, feedMachine[p], want.Schedule.MachineOf(int(j)))
					}
				}
				// Result materializes the session's retained window (the
				// rolling horizon), not the full history: its verified
				// schedule costs at most the complete replay, and the
				// session's incremental Cost still accounts the whole
				// stream (pinned above).
				res, err := sess.Result()
				if err != nil {
					t.Fatal(err)
				}
				if res.Cost > want.Cost+1e-9 {
					t.Errorf("session window Result cost %v exceeds full replay %v", res.Cost, want.Cost)
				}
				if res.Machines > want.Machines {
					t.Errorf("session window Result machines %d exceed full replay %d", res.Machines, want.Machines)
				}
			}
		})
	}
}

func TestOnlineSessionRejectsBadInput(t *testing.T) {
	s, err := busytime.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Online(2, "leastloaded"); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := s.Online(0, "firstfit"); err == nil {
		t.Error("g=0 accepted")
	}
	// Session capacities are int32: a wider g would wrap a demand of 1<<32
	// to a zero load, double-booking its machine.
	wide := math.MaxInt32
	wide++
	if _, err := s.Online(wide, "firstfit"); err == nil {
		t.Errorf("g=%d accepted; capacities are int32", wide)
	}
	top, err := s.Online(math.MaxInt32, "firstfit") // the widest g still fits
	if err != nil {
		t.Fatal(err)
	}
	if m, err := top.PlaceDemand(busytime.Interval{Start: 0, End: 10}, math.MaxInt32); m != 0 || err != nil {
		t.Fatalf("full-g job: machine %d, %v", m, err)
	}
	if m, err := top.PlaceDemand(busytime.Interval{Start: 1, End: 2}, 1); m != 1 || err != nil {
		t.Fatalf("overflow job: machine %d, %v; want machine 1", m, err)
	}
	sess, err := s.Online(2, "online-firstfit") // registered prefix accepted
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Place(busytime.Interval{Start: 5, End: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Place(busytime.Interval{Start: 4, End: 10}); err == nil {
		t.Error("out-of-order arrival accepted")
	}
	if _, err := sess.Place(busytime.Interval{Start: 6, End: 5}); err == nil {
		t.Error("reversed interval accepted")
	}
	if _, err := sess.PlaceDemand(busytime.Interval{Start: 6, End: 7}, 3); err == nil {
		t.Error("demand > g accepted")
	}
	if _, err := sess.PlaceDemand(busytime.Interval{Start: 6, End: 7}, 0); err == nil {
		t.Error("zero demand accepted")
	}
	if _, err := sess.Place(busytime.Interval{Start: 6, End: math.Inf(1)}); err == nil {
		t.Error("infinite end accepted")
	}
	if sess.Jobs() != 1 || sess.Cost() != 4 {
		t.Errorf("rejected placements changed the session: %d jobs, cost %v", sess.Jobs(), sess.Cost())
	}
}

// TestSolverConcurrentUse exercises the arena pool under concurrent Solve
// traffic (run with -race): distinct arenas per in-flight call, correct
// results throughout.
func TestSolverConcurrentUse(t *testing.T) {
	in := generator.General(13, 1000, 4, 500, 20)
	s, err := busytime.New(busytime.WithAlgorithm("firstfit"), busytime.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func() {
			res, err := s.Solve(context.Background(), in)
			if err == nil && (res.Cost != want.Cost || res.Machines != want.Machines) {
				err = errors.New("concurrent solve diverged")
			}
			errs <- err
		}()
	}
	for g := 0; g < 16; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestOnlineSessionRollingPublic drives the rolling-horizon surface through
// the public API: WithWindow pre-sizing, early Release, auto-expiry and the
// telemetry snapshot.
func TestOnlineSessionRollingPublic(t *testing.T) {
	s, err := busytime.New(busytime.WithWindow(64))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := s.Online(2, "firstfit")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Place(ival(0, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Place(ival(1, 10)); err != nil {
		t.Fatal(err)
	}
	if sess.Live() != 2 {
		t.Fatalf("live = %d, want 2", sess.Live())
	}
	// Release job 0 at clock 1: its span is clipped, and once the clock
	// moves strictly past, its slot frees up.
	if ok, err := sess.Release(0); !ok || err != nil {
		t.Fatalf("Release(0) = %v, %v", ok, err)
	}
	if ok, err := sess.Release(0); ok || err != nil {
		t.Fatalf("double Release(0) = %v, %v, want false, nil", ok, err)
	}
	if _, err := sess.Release(7); err == nil {
		t.Fatal("Release of a never-placed job accepted")
	}
	if _, err := sess.Place(ival(2, 10)); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.Placed != 3 || st.Released != 1 || st.Live != 2 {
		t.Fatalf("stats = %+v, want placed 3, released 1, live 2", st)
	}
	if st.Machines != 1 {
		t.Fatalf("machines = %d, want 1 (released slot reused)", st.Machines)
	}
	if st.LowerBound <= 0 || st.Cost < st.LowerBound-1e-9 || st.Ratio < 1-1e-9 {
		t.Fatalf("bound telemetry inconsistent: %+v", st)
	}
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Cost, sess.Cost()) {
		t.Fatalf("window result cost %v != session cost %v", res.Cost, sess.Cost())
	}
}

// TestOnlinePoolPublic drives the multi-tenant pool surface: per-tenant
// isolation, release handles, stats, the offline comparison and Drop.
func TestOnlinePoolPublic(t *testing.T) {
	s, err := busytime.New(busytime.WithWindow(32), busytime.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := s.OnlinePool(2, "bestfit")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		iv := ival(float64(i), float64(i)+4)
		if _, _, err := pool.Place("a", iv); err != nil {
			t.Fatal(err)
		}
		if _, _, err := pool.PlaceDemand("b", iv, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, job, err := pool.Place("a", ival(8, 12)); err != nil {
		t.Fatal(err)
	} else if ok, err := pool.Release("a", job); !ok || err != nil {
		t.Fatalf("Release = %v, %v", ok, err)
	}
	if ok, err := pool.Release("ghost", 0); ok || err != nil {
		t.Fatalf("Release on unknown tenant = %v, %v", ok, err)
	}
	sta, ok := pool.Stats("a")
	if !ok || sta.Placed != 9 || sta.Released != 1 {
		t.Fatalf("tenant a stats = %+v, %v", sta, ok)
	}
	if got := len(pool.Tenants()); got != 2 {
		t.Fatalf("%d tenants, want 2", got)
	}
	cmp, err := pool.Offline("b")
	if err != nil {
		t.Fatal(err)
	}
	if cmp.WindowCost < cmp.Bounds.Fractional-1e-9 || cmp.OnlineCost < cmp.WindowCost-1e-9 {
		t.Fatalf("comparison inconsistent: %+v", cmp)
	}
	if cmp.Ratio < 1-1e-9 {
		t.Fatalf("ratio %v < 1", cmp.Ratio)
	}
	if !pool.Drop("a") || pool.Drop("a") {
		t.Fatal("Drop: want true then false")
	}

	// Fresh-schedule solvers have no shared arenas: Offline must refuse.
	fresh, err := busytime.New(busytime.WithFreshSchedules())
	if err != nil {
		t.Fatal(err)
	}
	fpool, err := fresh.OnlinePool(2, "firstfit")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fpool.Place("x", ival(0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := fpool.Offline("x"); err == nil {
		t.Fatal("Offline on a fresh-schedule solver accepted")
	}

	// The lookahead rejection applies to pools like it does to sessions.
	la, err := busytime.New(busytime.WithAlgorithm("online-firstfit"), busytime.WithLookahead(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := la.OnlinePool(2, "firstfit"); err == nil {
		t.Fatal("lookahead pool accepted")
	}
}

func TestResultCrossCheck(t *testing.T) {
	in := generator.General(9, 400, 3, 180, 25)
	s, err := busytime.New(busytime.WithAlgorithm("bestfit"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CrossCheck(1e-9); err != nil {
		t.Errorf("CrossCheck rejects a verified solve: %v", err)
	}
	var empty busytime.Result
	if err := empty.CrossCheck(1e-9); err == nil {
		t.Error("CrossCheck accepted a Result without a schedule")
	}
}
