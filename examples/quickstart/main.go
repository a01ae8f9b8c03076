// Quickstart: build an instance through the validating constructors, run
// the paper's FirstFit through a Solver session, inspect the Result, and
// compare against the exact optimum — all through the public busytime API.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"busytime"
)

func main() {
	ctx := context.Background()

	// Six jobs, at most g = 2 simultaneously per machine. ParseInterval and
	// BuildInstance validate instead of panicking.
	var ivs []busytime.Interval
	for _, p := range [][2]float64{{0, 4}, {1, 5}, {2, 6}, {8, 10}, {8, 9}, {3, 9}} {
		iv, err := busytime.ParseInterval(p[0], p[1])
		if err != nil {
			log.Fatal(err)
		}
		ivs = append(ivs, iv)
	}
	in, err := busytime.BuildInstance(2, busytime.UnitJobs(ivs...)...)
	if err != nil {
		log.Fatal(err)
	}
	in.Name = "quickstart"

	b, err := busytime.AllBounds(in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance %q: n=%d, g=%d\n", in.Name, in.N(), in.G)
	fmt.Printf("lower bounds: span=%.1f parallelism=%.1f fractional=%.1f\n\n",
		b.Span, b.Parallelism, b.Fractional)

	// The paper's 4-approximation (§2.1) through a verified Solver session.
	ff, err := busytime.New(
		busytime.WithAlgorithm("firstfit"),
		busytime.WithVerify(true),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := ff.Solve(ctx, in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FirstFit: %d machines, total busy time %.1f (gap to LB %.1f)\n",
		res.Machines, res.Cost, res.Gap())
	for _, m := range res.Schedule.Summary() {
		fmt.Printf("  machine %d: jobs %v busy %v (%.1f)\n", m.Machine, m.JobIDs, m.Busy, m.Cost)
	}

	// Exact optimum (branch and bound; small instances only). The session
	// takes the same context every entry point does — a cancelled ctx stops
	// the search mid-run.
	ex, err := busytime.New(busytime.WithAlgorithm("exact"))
	if err != nil {
		log.Fatal(err)
	}
	opt, err := ex.Solve(ctx, in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nOPT: %d machines, total busy time %.1f\n", opt.Machines, opt.Cost)
	fmt.Printf("FirstFit/OPT = %.3f (Theorem 2.1 guarantees ≤ 4)\n", res.Cost/opt.Cost)
}
