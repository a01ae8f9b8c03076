package busytime_test

import (
	"context"
	"fmt"

	"busytime"
)

// ExampleNew shows option combinations and the eager validation New
// performs: a semi-online lookahead belongs to the online-* algorithms.
func ExampleNew() {
	s, err := busytime.New(
		busytime.WithAlgorithm("online-firstfit"),
		busytime.WithLookahead(8),
		busytime.WithWorkers(4),
		busytime.WithVerify(true),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(s.Algorithm())

	_, err = busytime.New(busytime.WithAlgorithm("firstfit"), busytime.WithLookahead(8))
	fmt.Println(err)
	// Output:
	// online-firstfit
	// busytime: WithLookahead applies to the online-* algorithms, not "firstfit"
}

// ExampleSolver_Solve schedules one instance through a session and reads
// the Result: cost, lower bound, optimality gap.
func ExampleSolver_Solve() {
	in, err := busytime.BuildInstance(2, busytime.UnitJobs(
		busytime.Interval{Start: 0, End: 4},
		busytime.Interval{Start: 1, End: 5},
		busytime.Interval{Start: 2, End: 6},
	)...)
	if err != nil {
		fmt.Println(err)
		return
	}
	s, err := busytime.New(busytime.WithAlgorithm("firstfit"), busytime.WithVerify(true))
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := s.Solve(context.Background(), in)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s: machines=%d cost=%.0f lb=%.0f gap=%.0f\n",
		res.Algorithm, res.Machines, res.Cost, res.LowerBound(), res.Gap())
	// Output: firstfit: machines=2 cost=9 lb=8 gap=1
}

// ExampleSolver_SolveBatch fans a batch out across workers; results come
// back in input order regardless of parallelism.
func ExampleSolver_SolveBatch() {
	// Every item is validated like a Solve call; an invalid one reports its
	// error in BatchResult.Err without failing the rest.
	batch := []*busytime.Instance{
		{G: 2, Jobs: busytime.UnitJobs(
			busytime.Interval{Start: 0, End: 4},
			busytime.Interval{Start: 1, End: 5},
			busytime.Interval{Start: 2, End: 6})},
		{G: 2, Jobs: busytime.UnitJobs(
			busytime.Interval{Start: 0, End: 2},
			busytime.Interval{Start: 1, End: 3})},
	}
	s, err := busytime.New(busytime.WithAlgorithm("firstfit"), busytime.WithWorkers(2))
	if err != nil {
		fmt.Println(err)
		return
	}
	results, err := s.SolveBatch(context.Background(), batch)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, r := range results {
		fmt.Printf("%d: n=%d machines=%d cost=%.0f\n", r.Index, r.N, r.Machines, r.Cost)
	}
	// Output:
	// 0: n=3 machines=2 cost=9
	// 1: n=2 machines=1 cost=3
}

// ExampleSolver_SolveStream drains a generator-backed stream in bounded
// memory; the output is identical to collecting and batching.
func ExampleSolver_SolveStream() {
	i := 0
	next := func() (*busytime.Instance, bool) {
		if i >= 3 {
			return nil, false
		}
		i++
		iv := busytime.Interval{Start: 0, End: float64(i)}
		return &busytime.Instance{G: 2, Jobs: busytime.UnitJobs(iv, iv)}, true
	}
	s, err := busytime.New(busytime.WithAlgorithm("firstfit"))
	if err != nil {
		fmt.Println(err)
		return
	}
	results, err := s.SolveStream(context.Background(), next)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, r := range results {
		fmt.Printf("cost=%.0f ", r.Cost)
	}
	fmt.Println()
	// Output: cost=1 cost=2 cost=3
}

// ExampleSolver_Online feeds arrivals one at a time — the online model,
// where decisions are immediate and irrevocable.
func ExampleSolver_Online() {
	s, err := busytime.New()
	if err != nil {
		fmt.Println(err)
		return
	}
	sess, err := s.Online(2, "bestfit")
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, p := range [][2]float64{{0, 4}, {1, 5}, {2, 6}} {
		m, err := sess.Place(busytime.Interval{Start: p[0], End: p[1]})
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("[%g,%g] -> machine %d\n", p[0], p[1], m)
	}
	fmt.Printf("machines=%d cost=%.0f\n", sess.Machines(), sess.Cost())
	// Output:
	// [0,4] -> machine 0
	// [1,5] -> machine 0
	// [2,6] -> machine 1
	// machines=2 cost=9
}

// ExampleBuildInstance shows the validating constructor rejecting a job
// whose demand exceeds the parallelism g.
func ExampleBuildInstance() {
	_, err := busytime.BuildInstance(2, busytime.Job{ID: 0, Iv: busytime.Interval{Start: 0, End: 5}, Demand: 3})
	fmt.Println(err)
	// Output: core: job 0 demand 3 outside [1, 2]
}

// Example schedules three overlapping jobs with parallelism 2 and compares
// FirstFit to the optimum.
func Example() {
	in, err := busytime.BuildInstance(2, busytime.UnitJobs(
		busytime.Interval{Start: 0, End: 4},
		busytime.Interval{Start: 1, End: 5},
		busytime.Interval{Start: 2, End: 6},
	)...)
	if err != nil {
		fmt.Println(err)
		return
	}
	ctx := context.Background()
	ff, err := busytime.New(busytime.WithAlgorithm("firstfit"))
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := ff.Solve(ctx, in)
	if err != nil {
		fmt.Println(err)
		return
	}
	exact, err := busytime.New(busytime.WithAlgorithm("exact"))
	if err != nil {
		fmt.Println(err)
		return
	}
	opt, err := exact.Solve(ctx, in)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("firstfit=%.0f opt=%.0f machines=%d\n", res.Cost, opt.Cost, res.Machines)
	// Output: firstfit=9 opt=9 machines=2
}

// ExampleAllBounds shows the fractional bound dominating the two
// Observation 1.1 bounds.
func ExampleAllBounds() {
	in, err := busytime.BuildInstance(2, busytime.UnitJobs(
		busytime.Interval{Start: 0, End: 1},
		busytime.Interval{Start: 2, End: 3},
		busytime.Interval{Start: 0, End: 3},
	)...)
	if err != nil {
		fmt.Println(err)
		return
	}
	b, err := busytime.AllBounds(in)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("span=%.1f parallelism=%.1f fractional=%.1f\n",
		b.Span, b.Parallelism, b.Fractional)
	// Output: span=3.0 parallelism=2.5 fractional=3.0
}

// ExampleSolver_Solve_properfit runs the §3.1 2-approximation on a proper
// instance.
func ExampleSolver_Solve_properfit() {
	in, err := busytime.BuildInstance(1, busytime.UnitJobs(
		busytime.Interval{Start: 0, End: 2},
		busytime.Interval{Start: 1, End: 3},
		busytime.Interval{Start: 2, End: 4},
	)...)
	if err != nil {
		fmt.Println(err)
		return
	}
	s, err := busytime.New(busytime.WithAlgorithm("properfit"))
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := s.Solve(context.Background(), in)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("machines=%d cost=%.0f\n", res.Machines, res.Cost)
	// Output: machines=3 cost=6
}

// ExampleSolver_Solve_clique groups a clique of jobs by distance from their
// common point, g per machine (Appendix, Theorem A.1). On an instance that
// is not a clique, Solve returns an error instead.
func ExampleSolver_Solve_clique() {
	in, err := busytime.BuildInstance(2, busytime.UnitJobs(
		busytime.Interval{Start: 0, End: 10},
		busytime.Interval{Start: 1, End: 9},
		busytime.Interval{Start: 2, End: 8},
		busytime.Interval{Start: 3, End: 7},
	)...)
	if err != nil {
		fmt.Println(err)
		return
	}
	s, err := busytime.New(busytime.WithAlgorithm("clique"))
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := s.Solve(context.Background(), in)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("machines=%d cost=%.0f\n", res.Machines, res.Cost)
	// Output: machines=2 cost=16
}
