// Package cli implements the busysched command-line front end as a
// testable library: RunContext dispatches subcommands and writes to
// injected streams, and cmd/busysched is a thin wrapper around it. The CLI
// is a consumer of the public busytime API — solvers are built with
// busytime.New and driven through Solve/SolveBatch/SolveStream, so every
// subcommand exercises exactly the surface external users get (including
// context cancellation: busysched wires SIGINT into the context).
//
// `busysched help` lists the subcommands and their flags. They cover
// instances (generate, convert, bounds), single solves (solve, eval, show,
// simulate), batches and streams (batch, online, replay), and the paper's
// artifacts: experiments prints the tables of experiments E1–E10 and the
// ablations, and lightpath runs the §4 optical grooming reduction.
//
// Every workload name resolves through the internal/scenario registry:
// generate -kind, batch -kind and replay -scenario take the same names
// (replay -list prints them), and generate and batch share one workload
// flag set mapping onto scenario.Params (-seed, -n, -g, -horizon,
// -meanlen), where zero means the family default.
//
// Example:
//
//	busysched generate -kind general -n 50 -g 3 -seed 7 -out inst.json
//	busysched solve -algo firstfit -in inst.json
//	busysched batch -algo firstfit -count 64 -kind burst -n 100000 -format csv
//	busysched experiments -trials 10 -only E2,E9
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"busytime"
	"busytime/internal/algo/laminar"
	"busytime/internal/core"
	"busytime/internal/generator"
	"busytime/internal/scenario"
	"busytime/internal/sim"
	"busytime/internal/stats"
	"busytime/internal/viz"
	"busytime/internal/xrand"
)

// CLI bundles the output streams of one invocation.
type CLI struct {
	Out io.Writer
	Err io.Writer
}

// RunContext dispatches a busysched invocation (args excludes the program
// name) and returns the process exit code: 0 on success, 1 for a command
// error, 2 for a missing or unknown command. Cancelling ctx stops in-flight
// work cooperatively (batch workers at their next instance, the exact
// search mid-run, experiments before the next table) and surfaces
// context.Canceled as an ordinary command error.
func RunContext(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := &CLI{Out: stdout, Err: stderr}
	if len(args) < 1 {
		c.usage()
		return 2
	}
	var err error
	switch args[0] {
	case "generate":
		err = c.cmdGenerate(args[1:])
	case "solve":
		err = c.cmdSolve(ctx, args[1:])
	case "eval":
		err = c.cmdEval(ctx, args[1:])
	case "bounds":
		err = c.cmdBounds(args[1:])
	case "show":
		err = c.cmdShow(ctx, args[1:])
	case "simulate":
		err = c.cmdSimulate(ctx, args[1:])
	case "convert":
		err = c.cmdConvert(args[1:])
	case "batch":
		err = c.cmdBatch(ctx, args[1:])
	case "online":
		err = c.cmdOnline(ctx, args[1:])
	case "replay":
		err = c.cmdReplay(ctx, args[1:])
	case "experiments":
		err = c.cmdExperiments(ctx, args[1:])
	case "lightpath":
		err = c.cmdLightpath(ctx, args[1:])
	case "help", "-h", "--help":
		c.usage()
	default:
		fmt.Fprintf(c.Err, "busysched: unknown command %q\n", args[0])
		c.usage()
		return 2
	}
	if errors.Is(err, flag.ErrHelp) {
		return 0 // -h: the flag set has printed the command's flags
	}
	if err != nil {
		fmt.Fprintf(c.Err, "busysched: %v\n", err)
		return 1
	}
	return 0
}

func (c *CLI) usage() {
	fmt.Fprintln(c.Err, `usage: busysched <command> [flags]

commands:
  generate  -kind NAME [-seed S] [-n N] [-g G] [-horizon H] [-meanlen L]
            [-out FILE]                        an instance of any scenario that
                                               replay -list prints (0 = default)
  solve     -algo NAME -in FILE [-out FILE] [-replay]
  eval      -in FILE
  bounds    -in FILE
  show      -in FILE [-algo NAME] [-width W]   ASCII Gantt chart + depth profile
  simulate  -in FILE [-algo NAME]              discrete-event replay report
  convert   -in FILE -out FILE                 json<->csv by extension
  batch     -algo NAME [-workers W] [-format csv|json] [-out FILE] [-verify]
            FILE...                            schedule instance files, or
            -kind NAME -count K [-seed S] [-n N] [-g G] [-horizon H] [-meanlen L]
                                               a generated suite (seeds S, S+1, ...)
  online    -policy firstfit|bestfit|nextfit -n N -g G -live L
            [-maxdemand D] [-release P] [-window W] [-seed S] [-json]
            rolling-horizon stream with arrivals and departures
  replay    -scenario NAME | -trace FILE | -list
            [-seed S] [-seeds K] [-n N] [-g G] [-algo NAME] [-policy NAME]
            [-modes offline,online,wire] [-addr HOST:PORT] [-tenant T]
            [-release P] [-repeat R] [-workers W] [-maxdemand D]
            [-json | -format csv] [-out FILE]
            replay a registered workload scenario with billing cross-checks
  experiments [-trials T] [-large N] [-seed S] [-only E1,E2,...] [-ablations=false]
            the paper's experiments E1–E10 and ablations, one table each
  lightpath [-nodes N] [-paths P] [-g G] [-maxhops H] [-seed S] [-breakdown]
            [-ring]                            §4 optical grooming via the reduction

registered algorithms:`)
	for _, a := range busytime.Algorithms() {
		suffix := ""
		if a.Cancellation == "mid-run" {
			suffix = "  (cancels mid-run)"
		}
		fmt.Fprintf(c.Err, "  %-16s %s%s\n", a.Name, a.Description, suffix)
	}
}

// newSolver builds a session for one CLI invocation; every schedule-running
// subcommand goes through here, so the CLI cannot bypass the public API.
func newSolver(name string, opts ...busytime.Option) (*busytime.Solver, error) {
	return busytime.New(append([]busytime.Option{busytime.WithAlgorithm(name)}, opts...)...)
}

func (c *CLI) cmdGenerate(args []string) error {
	fs := newFlagSet(c, "generate")
	wf := addWorkloadFlags(fs)
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := wf.scenario()
	if err != nil {
		return err
	}
	in, err := sc.Instance(wf.p)
	if err != nil {
		return err
	}
	w := io.Writer(c.Out)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return core.WriteInstance(w, in)
}

func loadInstance(path string) (*core.Instance, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -in FILE")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	in, err := core.ReadInstance(f)
	if err != nil {
		return nil, fmt.Errorf("read instance %s: %w", path, err)
	}
	return in, nil
}

// solveFile loads an instance file and solves it on a verifying session of
// the named algorithm.
func solveFile(ctx context.Context, path, name string) (*core.Instance, busytime.Result, error) {
	inst, err := loadInstance(path)
	if err != nil {
		return nil, busytime.Result{}, err
	}
	solver, err := newSolver(name, busytime.WithVerify(true))
	if err != nil {
		return nil, busytime.Result{}, err
	}
	res, err := solver.Solve(ctx, inst)
	return inst, res, err
}

func (c *CLI) cmdSolve(ctx context.Context, args []string) error {
	fs := newFlagSet(c, "solve")
	name := fs.String("algo", "firstfit", "algorithm name (see busysched help)")
	in := fs.String("in", "", "instance file")
	out := fs.String("out", "", "write the schedule JSON to this file")
	replay := fs.Bool("replay", false, "cross-check via discrete-event replay")
	if err := fs.Parse(args); err != nil {
		return err
	}
	inst, res, err := solveFile(ctx, *in, *name)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.Out, "instance : %s (n=%d, g=%d)\n", inst.Name, inst.N(), inst.G)
	fmt.Fprintf(c.Out, "algorithm: %s\n", res.Algorithm)
	fmt.Fprintf(c.Out, "machines : %d\n", res.Machines)
	fmt.Fprintf(c.Out, "cost     : %.4f\n", res.Cost)
	fmt.Fprintf(c.Out, "LB(frac) : %.4f  (cost/LB = %.4f)\n", res.LowerBound(), res.Ratio())
	if *replay {
		if err := sim.Check(res.Schedule, 1e-6); err != nil {
			return fmt.Errorf("replay check failed: %w", err)
		}
		fmt.Fprintln(c.Out, "replay   : ok (measured busy time matches)")
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		return core.WriteSchedule(f, res.Schedule)
	}
	return nil
}

func (c *CLI) cmdEval(ctx context.Context, args []string) error {
	fs := newFlagSet(c, "eval")
	in := fs.String("in", "", "instance file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	inst, err := loadInstance(*in)
	if err != nil {
		return err
	}
	b, err := busytime.AllBounds(inst)
	if err != nil {
		return err
	}
	tb := stats.NewTable(
		fmt.Sprintf("evaluation of %s (n=%d, g=%d, LB=%.3f)", inst.Name, inst.N(), inst.G, b.Fractional),
		"algorithm", "machines", "cost", "cost/LB")
	for _, a := range busytime.Algorithms() {
		if a.Name == "exact" && inst.N() > 16 {
			continue // exact is exponential; skip on big inputs
		}
		if a.Name == "clique" && !inst.IsClique() {
			continue
		}
		if a.Name == "laminar" && !laminar.IsLaminar(inst.Set()) {
			continue
		}
		solver, err := newSolver(a.Name, busytime.WithVerify(true))
		if err != nil {
			return err
		}
		res, err := solver.Solve(ctx, inst)
		if err != nil {
			// A cancelled run aborts the whole evaluation (nonzero exit);
			// per-algorithm rejections stay in the table.
			if ctx.Err() != nil {
				return err
			}
			tb.AddRow(a.Name, "-", "-", fmt.Sprintf("error: %v", err))
			continue
		}
		tb.AddRow(a.Name, res.Machines, res.Cost, res.Ratio())
	}
	fmt.Fprint(c.Out, tb.String())
	return nil
}

func (c *CLI) cmdBounds(args []string) error {
	fs := newFlagSet(c, "bounds")
	in := fs.String("in", "", "instance file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	inst, err := loadInstance(*in)
	if err != nil {
		return err
	}
	b, err := busytime.AllBounds(inst)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.Out, "instance    : %s (n=%d, g=%d)\n", inst.Name, inst.N(), inst.G)
	fmt.Fprintf(c.Out, "span        : %.4f\n", b.Span)
	fmt.Fprintf(c.Out, "parallelism : %.4f\n", b.Parallelism)
	fmt.Fprintf(c.Out, "fractional  : %.4f  (dominates both)\n", b.Fractional)
	fmt.Fprintf(c.Out, "proper      : %v\n", inst.IsProper())
	fmt.Fprintf(c.Out, "clique      : %v\n", inst.IsClique())
	fmt.Fprintf(c.Out, "components  : %d\n", len(inst.Components()))
	return nil
}

func (c *CLI) cmdShow(ctx context.Context, args []string) error {
	fs := newFlagSet(c, "show")
	in := fs.String("in", "", "instance file")
	name := fs.String("algo", "firstfit", "algorithm to schedule with")
	width := fs.Int("width", 80, "chart width in columns")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *width < 1 {
		return fmt.Errorf("-width %d: chart width must be ≥ 1", *width)
	}
	inst, res, err := solveFile(ctx, *in, *name)
	if err != nil {
		return err
	}
	fmt.Fprint(c.Out, viz.DepthProfile(inst, *width))
	fmt.Fprintln(c.Out)
	fmt.Fprint(c.Out, viz.Gantt(res.Schedule, *width))
	return nil
}

func (c *CLI) cmdSimulate(ctx context.Context, args []string) error {
	fs := newFlagSet(c, "simulate")
	in := fs.String("in", "", "instance file")
	name := fs.String("algo", "firstfit", "algorithm to schedule with")
	if err := fs.Parse(args); err != nil {
		return err
	}
	inst, res, err := solveFile(ctx, *in, *name)
	if err != nil {
		return err
	}
	rep, err := sim.Replay(res.Schedule)
	if err != nil {
		return err
	}
	tb := stats.NewTable(
		fmt.Sprintf("replay of %s via %s (%d events)", inst.Name, res.Algorithm, rep.Events),
		"machine", "jobs", "busy", "peak load", "power-ons")
	for _, m := range rep.Machines {
		tb.AddRow(m.Machine, m.Jobs, m.Busy, m.PeakLoad, m.Switches)
	}
	fmt.Fprint(c.Out, tb.String())
	fmt.Fprintf(c.Out, "total busy %.4f (analytic %.4f), violations %d\n",
		rep.TotalBusy, res.Cost, len(rep.Violations))
	if len(rep.Violations) > 0 {
		return fmt.Errorf("schedule violates capacity")
	}
	return nil
}

func (c *CLI) cmdConvert(args []string) error {
	fs := newFlagSet(c, "convert")
	in := fs.String("in", "", "input file (.json or .csv)")
	out := fs.String("out", "", "output file (.json or .csv)")
	g := fs.Int("g", 1, "parallelism fallback for CSV inputs without a #g row")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("convert needs -in and -out")
	}
	var inst *core.Instance
	rf, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer rf.Close()
	switch {
	case strings.HasSuffix(*in, ".csv"):
		inst, err = core.ReadInstanceCSV(rf, *g)
	default:
		inst, err = core.ReadInstance(rf)
	}
	if err != nil {
		return err
	}
	wf, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer wf.Close()
	if strings.HasSuffix(*out, ".csv") {
		return core.WriteInstanceCSV(wf, inst)
	}
	return core.WriteInstance(wf, inst)
}

// cmdBatch runs one algorithm over a batch of instances through the public
// SolveBatch/SolveStream fan-out and reports one CSV or JSON row per
// instance. Instances come either from the positional file arguments or,
// when none are given, from a generated suite (-kind/-count and the shared
// workload flags, seeds increasing per instance). Generated suites stream
// into the solver shard by shard, so arbitrarily long suites run in
// bounded memory.
func (c *CLI) cmdBatch(ctx context.Context, args []string) error {
	fs := newFlagSet(c, "batch")
	name := fs.String("algo", "firstfit", "algorithm name (see busysched help)")
	workers := fs.Int("workers", 0, "parallel workers (0 = all cores)")
	intra := fs.Int("intra", 1, "intra-instance workers: split each instance's components across this many workers (0 = all cores, 1 = off)")
	shards := fs.Int("shards", 1, "time shards: cut dominant components across the time axis (0 = all cores, 1 = off; results may differ — see WithTimeSharding)")
	format := fs.String("format", "csv", "output format: csv or json")
	out := fs.String("out", "", "output file (default stdout)")
	verify := fs.Bool("verify", false, "re-verify every schedule's feasibility")
	wf := addWorkloadFlags(fs)
	count := fs.Int("count", 16, "generated suite size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "csv" && *format != "json" {
		return fmt.Errorf("unknown format %q (want csv or json)", *format)
	}
	if *count < 0 {
		return fmt.Errorf("-count %d: suite size must be ≥ 0", *count)
	}
	opts := []busytime.Option{busytime.WithWorkers(*workers), busytime.WithVerify(*verify)}
	if *intra != 1 {
		opts = append(opts, busytime.WithIntraWorkers(*intra))
	}
	if *shards != 1 {
		opts = append(opts, busytime.WithTimeSharding(*shards))
	}
	solver, err := newSolver(*name, opts...)
	if err != nil {
		return err
	}

	var results []busytime.BatchResult
	if files := fs.Args(); len(files) > 0 {
		instances := make([]*core.Instance, len(files))
		for i, path := range files {
			if instances[i], err = loadInstance(path); err != nil {
				return err
			}
		}
		results, err = solver.SolveBatch(ctx, instances)
	} else {
		var sc scenario.Scenario
		if sc, err = wf.scenario(); err != nil {
			return err
		}
		var genErr error
		i := 0
		next := func() (*core.Instance, bool) {
			if i >= *count {
				return nil, false
			}
			p := wf.p
			p.Seed += int64(i)
			in, err := sc.Instance(p)
			if err != nil {
				genErr = err
				return nil, false
			}
			i++
			return in, true
		}
		results, err = solver.SolveStream(ctx, next)
		if err == nil {
			err = genErr
		}
	}
	if err != nil {
		return err
	}

	// Arena telemetry goes to stderr so the CSV/JSON stream stays
	// deterministic across worker counts. Algorithms without a scratch path
	// never advance the counters; stay quiet rather than report a
	// meaningless 0% hit rate.
	pool := busytime.SummarizeBatch(results)
	if pool.WarmRuns > 0 || pool.SetupAllocs > 0 {
		fmt.Fprintf(c.Err, "arena pool: %d/%d warm runs (%.0f%% hit rate), %d setup allocations\n",
			pool.WarmRuns, pool.Runs, 100*pool.HitRate(), pool.SetupAllocs)
	}
	// Decomposition telemetry follows the same convention: only printed when
	// the layer actually swept instances, so plain batches stay quiet.
	if pool.Components > 0 {
		fmt.Fprintf(c.Err, "decomposition: %d components across %d runs, %d solved component-parallel (max %d intra-workers), %d time-sharded (max %d shards)\n",
			pool.Components, pool.Runs, pool.DecomposedRuns, pool.MaxIntraWorkers, pool.ShardedRuns, pool.MaxShards)
	}

	w := io.Writer(c.Out)
	if *out != "" {
		f, ferr := os.Create(*out)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		w = f
	}
	if *format == "json" {
		return busytime.WriteBatchJSON(w, results)
	}
	return busytime.WriteBatchCSV(w, results)
}

// cmdOnline drives a rolling-horizon session over a synthetic arrival
// stream (generator.Stream: Poisson arrivals, bounded uniform durations)
// with a tunable fraction of early releases, and reports the session's
// telemetry — the live demonstration that memory follows the live window,
// not the stream length. Like every other subcommand it goes through the
// public API: busytime.New(WithWindow) + Solver.Online.
func (c *CLI) cmdOnline(ctx context.Context, args []string) error {
	fs := newFlagSet(c, "online")
	policy := fs.String("policy", "firstfit", "arrival policy: firstfit, bestfit or nextfit")
	n := fs.Int("n", 100000, "stream length (arrivals)")
	g := fs.Int("g", 4, "parallelism parameter")
	live := fs.Int("live", 1000, "target live-job population")
	maxDemand := fs.Int("maxdemand", 1, "maximum per-job demand")
	release := fs.Float64("release", 0.1, "fraction of arrivals followed by a random early release")
	window := fs.Int("window", 0, "pre-size the session for this many live jobs (0 = grow on demand)")
	seed := fs.Int64("seed", 1, "random seed")
	jsonOut := fs.Bool("json", false, "emit the full OnlineStats document as JSON (the daemon's per-tenant stats encoding)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 0 {
		return fmt.Errorf("-n %d: stream length must be ≥ 0", *n)
	}
	if *live < 1 {
		return fmt.Errorf("-live %d: live-job population must be ≥ 1", *live)
	}
	if *release < 0 || *release > 1 {
		return fmt.Errorf("-release %v out of [0, 1]", *release)
	}
	solver, err := busytime.New(busytime.WithWindow(*window))
	if err != nil {
		return err
	}
	sess, err := solver.Online(*g, *policy)
	if err != nil {
		return err
	}
	jobs := generator.Stream(*seed, *n, *live, *maxDemand)
	rng := xrand.New(*seed ^ 0x5eed)
	for i, j := range jobs {
		if i&4095 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		if _, err := sess.PlaceDemand(j.Iv, j.Demand); err != nil {
			return err
		}
		if rng.Float64() < *release {
			// Aim at a recent job; already-departed targets report false.
			if _, err := sess.Release(i - rng.Intn(min(i+1, 2**live))); err != nil {
				return err
			}
		}
	}
	st := sess.Stats()
	if *jsonOut {
		// The same encoder and field names as busyschedd's per-tenant stats
		// endpoint, so scripts consume one schema from both front ends.
		return stats.WriteJSON(c.Out, st)
	}
	fmt.Fprintf(c.Out, "stream    : n=%d live≈%d g=%d policy=%s seed=%d\n", *n, *live, *g, *policy, *seed)
	fmt.Fprintf(c.Out, "placed    : %d  (released %d, expired %d, live %d)\n", st.Placed, st.Released, st.Expired, st.Live)
	fmt.Fprintf(c.Out, "machines  : %d open, %d idle  (peak %d)\n", st.Machines, st.IdleMachines, st.PeakMachines)
	fmt.Fprintf(c.Out, "window    : %d records retained, capacity %d  (peak live %d, peak window %d, %d compactions)\n",
		st.Window, st.WindowCap, st.PeakLive, st.PeakWindow, st.Compactions)
	fmt.Fprintf(c.Out, "cost      : %.4f\n", st.Cost)
	fmt.Fprintf(c.Out, "LB(frac)  : %.4f  (cost/LB = %.4f)\n", st.LowerBound, st.Ratio)
	return nil
}

// cmdReplay drives the scenario engine: a registered workload family (or an
// external CSV trace) replayed offline through the solver, online through a
// rolling-horizon session, and optionally over the framed data plane against
// a running busyschedd — every mode cross-checked against the discrete-event
// simulator before anything is reported.
func (c *CLI) cmdReplay(ctx context.Context, args []string) error {
	fs := newFlagSet(c, "replay")
	name := fs.String("scenario", "diurnal", "registered scenario name (see -list)")
	list := fs.Bool("list", false, "list registered scenarios and exit")
	traceFile := fs.String("trace", "", "replay an external CSV trace instead of a registered scenario")
	seed := fs.Int64("seed", 1, "first random seed")
	seeds := fs.Int("seeds", 1, "number of consecutive seeds to sweep")
	n := fs.Int("n", 0, "target job count (0 = scenario default)")
	g := fs.Int("g", 0, "parallelism parameter (0 = scenario default)")
	algoName := fs.String("algo", "bestfit", "offline solve algorithm")
	policy := fs.String("policy", "firstfit", "online/wire arrival policy")
	modes := fs.String("modes", "offline,online", "replay paths: offline,online,wire (comma-separated)")
	addr := fs.String("addr", "", "busyschedd data-plane address (required for wire mode)")
	tenant := fs.String("tenant", "replay", "wire tenant key")
	release := fs.Float64("release", 0, "fraction of online arrivals departed early")
	repeat := fs.Int("repeat", 1, "offline solve repetitions (latency percentiles)")
	workers := fs.Int("workers", 0, "generation workers (0 = GOMAXPROCS)")
	maxDemand := fs.Int("maxdemand", 0, "maximum per-job demand (0 = scenario default)")
	jsonOut := fs.Bool("json", false, "emit the report(s) as JSON")
	format := fs.String("format", "", `"csv" for one flat row per run`)
	out := fs.String("out", "", "write the report to FILE instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, sc := range scenario.All() {
			fmt.Fprintf(c.Out, "  %-10s %s\n", sc.Name, sc.Description)
		}
		return nil
	}
	if *release < 0 || *release > 1 {
		return fmt.Errorf("-release %v out of [0, 1]", *release)
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds %d: seed count must be ≥ 1", *seeds)
	}
	if *repeat < 1 {
		return fmt.Errorf("-repeat %d: repetition count must be ≥ 1", *repeat)
	}
	var sc scenario.Scenario
	if *traceFile != "" {
		sc = scenario.FromCSV(*traceFile)
	} else {
		var ok bool
		sc, ok = scenario.Lookup(*name)
		if !ok {
			return fmt.Errorf("unknown scenario %q (registered: %s)", *name, strings.Join(scenario.Names(), ", "))
		}
	}
	mode, err := scenario.ParseModes(*modes)
	if err != nil {
		return err
	}
	if mode&scenario.ModeWire != 0 && *addr == "" {
		return fmt.Errorf("wire mode needs -addr")
	}
	cfg := scenario.Config{
		Modes:       mode,
		Algorithm:   *algoName,
		Policy:      *policy,
		Addr:        *addr,
		Tenant:      *tenant,
		ReleaseFrac: *release,
		Repeat:      *repeat,
	}
	var reports []*scenario.Report
	for k := 0; k < *seeds; k++ {
		rep, err := scenario.Run(ctx, cfg, sc, scenario.Params{
			Seed:      *seed + int64(k),
			N:         *n,
			G:         *g,
			MaxDemand: *maxDemand,
			Workers:   *workers,
		})
		if err != nil {
			return err
		}
		reports = append(reports, rep)
	}
	w := io.Writer(c.Out)
	if *out != "" {
		f, ferr := os.Create(*out)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		w = f
	}
	switch {
	case *jsonOut:
		if len(reports) == 1 {
			return stats.WriteJSON(w, reports[0])
		}
		return stats.WriteJSON(w, reports)
	case *format == "csv":
		return scenario.WriteReportsCSV(w, reports)
	case *format != "":
		return fmt.Errorf("unknown -format %q (want csv)", *format)
	}
	for _, rep := range reports {
		c.printReport(w, rep)
	}
	return nil
}

// printReport renders one scenario report for terminals.
func (c *CLI) printReport(w io.Writer, rep *scenario.Report) {
	fmt.Fprintf(w, "scenario  : %s seed=%d jobs=%d g=%d  (generated in %v)\n",
		rep.Scenario, rep.Params.Seed, rep.Jobs, rep.G, rep.GenTime.Round(time.Microsecond))
	if o := rep.Offline; o != nil {
		fmt.Fprintf(w, "offline   : %s  machines=%d cost=%.4f LB=%.4f gap=%.4f ratio=%.4f  [sim ok]\n",
			o.Algorithm, o.Machines, o.Cost, o.LowerBound, o.Gap, o.Ratio)
		fmt.Fprintf(w, "  solve   : p50=%v p99=%v max=%v  (%d solves)\n",
			o.Latency.P50, o.Latency.P99, o.Latency.Max, o.Solves)
	}
	if o := rep.Online; o != nil {
		fmt.Fprintf(w, "online    : %s  cost=%.4f LB=%.4f ratio=%.4f  placed=%d released=%d machines=%d  [sim ok]\n",
			o.Policy, o.Stats.Cost, o.Stats.LowerBound, o.Stats.Ratio, o.Stats.Placed, o.Released, o.Stats.Machines)
		fmt.Fprintf(w, "  place   : p50=%v p99=%v max=%v\n", o.Latency.P50, o.Latency.P99, o.Latency.Max)
	}
	if o := rep.Wire; o != nil {
		fmt.Fprintf(w, "wire      : %s tenant=%s  placed=%d rejected=%d  server cost=%.4f ratio=%.4f\n",
			o.Addr, o.Tenant, o.Placed, o.Rejected, o.Stats.Cost, o.Stats.Ratio)
		fmt.Fprintf(w, "  batch   : p50=%v p99=%v max=%v  (batch=%d)\n",
			o.Latency.P50, o.Latency.P99, o.Latency.Max, o.BatchSize)
	}
	if len(rep.Metrics) > 0 {
		fmt.Fprintf(w, "metrics   :")
		for _, m := range rep.Metrics {
			fmt.Fprintf(w, " %s=%g", m.Name, m.Value)
		}
		fmt.Fprintln(w)
	}
}

// workloadFlags are the flags generate and batch share: a registered
// scenario name and the scenario.Params fields the flags map onto. Zero
// means the family default.
type workloadFlags struct {
	kind string
	p    scenario.Params
}

func addWorkloadFlags(fs *flag.FlagSet) *workloadFlags {
	wf := &workloadFlags{}
	fs.StringVar(&wf.kind, "kind", "general", "registered workload: "+strings.Join(scenario.Names(), ", "))
	fs.Int64Var(&wf.p.Seed, "seed", 1, "random seed, 0 = family default (batch: instance i uses seed+i)")
	fs.IntVar(&wf.p.N, "n", 0, "number of jobs (0 = family default)")
	fs.IntVar(&wf.p.G, "g", 0, "parallelism parameter (0 = family default)")
	fs.Float64Var(&wf.p.Horizon, "horizon", 0, "time horizon (0 = family default)")
	fs.Float64Var(&wf.p.MeanLen, "meanlen", 0, "mean job length (0 = family default)")
	return wf
}

// scenario resolves -kind in the registry.
func (wf *workloadFlags) scenario() (scenario.Scenario, error) {
	sc, ok := scenario.Lookup(wf.kind)
	if !ok {
		return sc, fmt.Errorf("unknown kind %q (registered: %s)", wf.kind, strings.Join(scenario.Names(), ", "))
	}
	return sc, nil
}

// newFlagSet builds a flag set that reports parse errors on the CLI's
// error stream instead of exiting the process.
func newFlagSet(c *CLI, name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(c.Err)
	return fs
}
