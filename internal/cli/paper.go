package cli

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"busytime"
	"busytime/internal/experiments"
	"busytime/internal/optical"
	"busytime/internal/stats"
)

// cmdExperiments regenerates every quantitative artifact of the paper
// (DESIGN.md §4): experiments E1–E10 and, unless -ablations=false, the
// design-choice ablations, one table each. The experiments take no context,
// so an interrupt stops the run before the next table.
func (c *CLI) cmdExperiments(ctx context.Context, args []string) error {
	fs := newFlagSet(c, "experiments")
	trials := fs.Int("trials", 40, "random trials per table row")
	seed := fs.Int64("seed", 1, "base random seed")
	largeN := fs.Int("large", 2000, "job count of the large-instance rows")
	only := fs.String("only", "", "comma-separated experiment IDs (default all)")
	ablations := fs.Bool("ablations", true, "also run the design-choice ablations A1, A3–A6")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trials < 0 || *largeN < 0 {
		return fmt.Errorf("-trials %d -large %d: want ≥ 0 (0 = default)", *trials, *largeN)
	}
	list := experiments.All()
	if *ablations {
		list = append(list, experiments.Ablations()...)
	}
	if *only != "" {
		ids := make([]string, len(list))
		for i, e := range list {
			ids[i] = e.ID
		}
		want := map[string]bool{}
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if !slices.Contains(ids, id) {
				return fmt.Errorf("-only %s: not one of the selected experiments (%s)", id, strings.Join(ids, ", "))
			}
			want[id] = true
		}
		list = slices.DeleteFunc(list, func(e experiments.Experiment) bool { return !want[e.ID] })
	}
	cfg := experiments.Config{Trials: *trials, Seed: *seed, LargeN: *largeN}
	for _, e := range list {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		res, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(c.Out, "%s — %s\n", e.ID, e.Name)
		fmt.Fprint(c.Out, res.Table.String())
		fmt.Fprintf(c.Out, "(%s)\n\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// cmdLightpath demonstrates the §4 optical application: synthetic lightpath
// traffic on a path network, colored through the busy-time reduction, with
// wavelengths, regenerators, ADMs and the combined cost for a sweep of the
// cost weight α. -ring colors arcs on a ring through the cut reduction.
func (c *CLI) cmdLightpath(ctx context.Context, args []string) error {
	fs := newFlagSet(c, "lightpath")
	nodes := fs.Int("nodes", 40, "path network size")
	paths := fs.Int("paths", 120, "number of lightpaths")
	g := fs.Int("g", 4, "grooming factor")
	maxHops := fs.Int("maxhops", 16, "maximum lightpath length in edges")
	seed := fs.Int64("seed", 1, "traffic seed")
	breakdown := fs.Bool("breakdown", false, "print per-wavelength breakdown")
	ring := fs.Bool("ring", false, "use a ring topology (cut reduction) instead of a path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *paths < 0 {
		return fmt.Errorf("-paths %d: lightpath count must be ≥ 0", *paths)
	}
	if *ring {
		return c.lightpathRing(ctx, *seed, *nodes, *paths, *maxHops, *g)
	}
	// The traffic generator draws before anything validates the topology.
	if err := (&optical.Network{Nodes: *nodes, G: *g}).Validate(); err != nil {
		return err
	}
	net := optical.RandomTraffic(*seed, *nodes, *paths, *maxHops, *g)
	if err := net.Validate(); err != nil {
		return err
	}
	in := net.ToInstance()
	b, err := busytime.AllBounds(in)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.Out, "network: %d nodes, %d lightpaths, grooming g=%d\n", *nodes, *paths, *g)
	fmt.Fprintf(c.Out, "reduction: %d jobs, fractional LB %.2f\n\n", in.N(), b.Fractional)

	tb := stats.NewTable("coloring comparison",
		"algorithm", "wavelengths", "regenerators", "ADMs", "α=0", "α=0.5", "α=1")
	var best *optical.Coloring
	for _, a := range []struct{ label, algo string }{
		{"firstfit (paper §2)", "firstfit"},
		{"machine-min (§1.1)", "machine-min"},
		{"nextfit", "nextfit"},
	} {
		// A coloring keeps its schedule, so the session hands out fresh memory.
		solver, err := newSolver(a.algo, busytime.WithVerify(true), busytime.WithFreshSchedules())
		if err != nil {
			return err
		}
		res, err := solver.Solve(ctx, in)
		if err != nil {
			return fmt.Errorf("%s: %w", a.label, err)
		}
		col, err := optical.FromSchedule(net, res.Schedule)
		if err != nil {
			return fmt.Errorf("%s: %w", a.label, err)
		}
		if err := col.Validate(); err != nil {
			return fmt.Errorf("%s produced invalid coloring: %w", a.label, err)
		}
		tb.AddRow(a.label, col.Wavelengths(), col.Regenerators(), col.ADMs(),
			col.Cost(0), col.Cost(0.5), col.Cost(1))
		if best == nil || col.Regenerators() < best.Regenerators() {
			best = col
		}
	}
	fmt.Fprint(c.Out, tb.String())

	if *breakdown {
		fmt.Fprintln(c.Out)
		bd := stats.NewTable("per-wavelength breakdown (best coloring)",
			"wavelength", "lightpaths", "regenerators")
		for _, w := range best.Breakdown() {
			bd.AddRow(w.Wavelength, w.Lightpaths, w.Regenerators)
		}
		fmt.Fprint(c.Out, bd.String())
	}
	return nil
}

// lightpathRing demonstrates the ring-topology extension: arcs are colored
// via the cut reduction (crossing arcs become bonded interval pieces plus a
// cut-edge budget) and the result is compared across every possible cut.
func (c *CLI) lightpathRing(ctx context.Context, seed int64, nodes, paths, maxHops, g int) error {
	if err := (&optical.RingNetwork{Nodes: nodes, G: g}).Validate(); err != nil {
		return err
	}
	net := optical.RandomRingTraffic(seed, nodes, paths, maxHops, g)
	if err := net.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(c.Out, "ring network: %d nodes, %d arcs, grooming g=%d\n", nodes, paths, g)
	best := net.BestCut()
	fmt.Fprintf(c.Out, "least-loaded cut edge: %d\n\n", best)

	tb := stats.NewTable("cut comparison (every edge)",
		"cut", "wavelengths", "regenerators")
	bestRegen, bestCutSeen := -1, -1
	for cut := 0; cut < nodes; cut++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		col, err := net.ColorRing(cut)
		if err != nil {
			return fmt.Errorf("cut %d: %w", cut, err)
		}
		if err := col.Validate(); err != nil {
			return fmt.Errorf("cut %d invalid: %w", cut, err)
		}
		regen := col.Regenerators()
		if bestRegen < 0 || regen < bestRegen {
			bestRegen, bestCutSeen = regen, cut
		}
		if cut == best || cut < 4 { // keep the table short
			tb.AddRow(cut, col.Wavelengths(), regen)
		}
	}
	fmt.Fprint(c.Out, tb.String())
	fmt.Fprintf(c.Out, "\nbest observed cut: %d (%d regenerators)\n", bestCutSeen, bestRegen)
	return nil
}
