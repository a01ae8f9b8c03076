// Command lightpath demonstrates the §4 optical application: it generates
// (or loads nothing — traffic is synthetic) lightpath traffic on a path
// network, colors it through the busy-time scheduling reduction, and reports
// wavelengths, regenerators, ADMs and the combined cost for a sweep of the
// cost weight α.
//
//	lightpath -nodes 40 -paths 120 -g 4 -seed 7
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"busytime"
	"busytime/internal/optical"
	"busytime/internal/stats"
)

func main() {
	nodes := flag.Int("nodes", 40, "path network size")
	paths := flag.Int("paths", 120, "number of lightpaths")
	g := flag.Int("g", 4, "grooming factor")
	maxHops := flag.Int("maxhops", 16, "maximum lightpath length in edges")
	seed := flag.Int64("seed", 1, "traffic seed")
	breakdown := flag.Bool("breakdown", false, "print per-wavelength breakdown")
	ring := flag.Bool("ring", false, "use a ring topology (cut reduction) instead of a path")
	flag.Parse()

	if *ring {
		runRing(*seed, *nodes, *paths, *maxHops, *g)
		return
	}

	net := optical.RandomTraffic(*seed, *nodes, *paths, *maxHops, *g)
	if err := net.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "lightpath: %v\n", err)
		os.Exit(1)
	}
	in := net.ToInstance()
	b, err := busytime.AllBounds(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightpath: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("network: %d nodes, %d lightpaths, grooming g=%d\n", *nodes, *paths, *g)
	fmt.Printf("reduction: %d jobs, fractional LB %.2f\n\n", in.N(), b.Fractional)

	// The schedulers run through the public Solver API (the coloring keeps
	// the schedule, so sessions hand out caller-owned fresh memory).
	algs := []struct {
		label string
		algo  string
	}{
		{"firstfit (paper §2)", "firstfit"},
		{"machine-min (§1.1)", "machine-min"},
		{"nextfit", "nextfit"},
	}
	tb := stats.NewTable("coloring comparison",
		"algorithm", "wavelengths", "regenerators", "ADMs", "α=0", "α=0.5", "α=1")
	var best *optical.Coloring
	for _, a := range algs {
		solver, err := busytime.New(
			busytime.WithAlgorithm(a.algo),
			busytime.WithVerify(true),
			busytime.WithFreshSchedules(),
		)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lightpath: %s: %v\n", a.label, err)
			os.Exit(1)
		}
		res, err := solver.Solve(context.Background(), in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lightpath: %s: %v\n", a.label, err)
			os.Exit(1)
		}
		col, err := optical.FromSchedule(net, res.Schedule)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lightpath: %s: %v\n", a.label, err)
			os.Exit(1)
		}
		if err := col.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "lightpath: %s produced invalid coloring: %v\n", a.label, err)
			os.Exit(1)
		}
		tb.AddRow(a.label, col.Wavelengths(), col.Regenerators(), col.ADMs(),
			col.Cost(0), col.Cost(0.5), col.Cost(1))
		if best == nil || col.Regenerators() < best.Regenerators() {
			best = col
		}
	}
	fmt.Print(tb.String())

	if *breakdown && best != nil {
		fmt.Println()
		bd := stats.NewTable("per-wavelength breakdown (best coloring)",
			"wavelength", "lightpaths", "regenerators")
		for _, w := range best.Breakdown() {
			bd.AddRow(w.Wavelength, w.Lightpaths, w.Regenerators)
		}
		fmt.Print(bd.String())
	}
}

// runRing demonstrates the ring-topology extension: arcs are colored via
// the cut reduction (crossing arcs become bonded interval pieces plus a
// cut-edge budget) and the result is compared across every possible cut.
func runRing(seed int64, nodes, paths, maxHops, g int) {
	net := optical.RandomRingTraffic(seed, nodes, paths, maxHops, g)
	if err := net.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "lightpath: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ring network: %d nodes, %d arcs, grooming g=%d\n", nodes, paths, g)
	best := net.BestCut()
	fmt.Printf("least-loaded cut edge: %d\n\n", best)

	tb := stats.NewTable("cut comparison (every edge)",
		"cut", "wavelengths", "regenerators")
	bestRegen, bestCutSeen := -1, -1
	for cut := 0; cut < nodes; cut++ {
		col, err := net.ColorRing(cut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lightpath: cut %d: %v\n", cut, err)
			os.Exit(1)
		}
		if err := col.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "lightpath: cut %d invalid: %v\n", cut, err)
			os.Exit(1)
		}
		regen := col.Regenerators()
		if bestRegen < 0 || regen < bestRegen {
			bestRegen, bestCutSeen = regen, cut
		}
		if cut == best || cut < 4 { // keep the table short
			tb.AddRow(cut, col.Wavelengths(), regen)
		}
	}
	fmt.Print(tb.String())
	fmt.Printf("\nbest observed cut: %d (%d regenerators)\n", bestCutSeen, bestRegen)
}
