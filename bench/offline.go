package bench

import (
	"context"
	"fmt"
	"time"

	"busytime"
	"busytime/internal/scenario"
)

// Offline workloads solve one generated instance with FirstFit on a Solver
// whose decomposition layer may split it over two workers: one cold Solve
// in set-up, then warm Solves for the measuring time.

func offlineDense(r *runner) error {
	return runOffline(r, "poisson", scenario.Params{Seed: r.cfg.Seed, N: r.sz.denseN, G: 4, Horizon: 240, MeanLen: 3}, nil)
}

func offlineClustered(r *runner) error {
	return runOffline(r, "clustered", scenario.Params{Seed: r.cfg.Seed, N: r.sz.clusteredN, G: 3}, sameAsSequential)
}

func opticalLightpath(r *runner) error {
	return runOffline(r, "lightpath", scenario.Params{Seed: r.cfg.Seed, N: r.sz.lightpathN, G: 16, Horizon: 64}, opticalCheck)
}

// verifier is a workload's own output check, run after the generic one.
type verifier func(r *runner, root int32, sc scenario.Scenario, p scenario.Params, in *busytime.Instance, res busytime.Result) error

func runOffline(r *runner, family string, p scenario.Params, verify verifier) error {
	ctx := context.Background()
	sc, ok := scenario.Lookup(family)
	if !ok {
		return fmt.Errorf("no scenario %q", family)
	}
	var (
		in                         *busytime.Instance
		solver                     *busytime.Solver
		res                        busytime.Result
		gen, val, axis, bnd, first []time.Duration
	)
	err := r.setup(func(root int32) error {
		d, err := r.call("generate", root, func() (err error) {
			in, err = sc.Instance(p)
			return err
		})
		if err != nil {
			return err
		}
		gen = append(gen, d)
		d, err = r.call("validate", root, func() error { return in.CachedValidate() })
		if err != nil {
			return err
		}
		val = append(val, d)
		d, _ = r.call("axis", root, func() error { in.TimeAxis(); return nil })
		axis = append(axis, d)
		d, _ = r.call("bounds", root, func() error { in.CachedBounds(); return nil })
		bnd = append(bnd, d)
		if solver, err = busytime.New(busytime.WithIntraWorkers(2)); err != nil {
			return err
		}
		d, err = r.call("solve", root, func() (err error) {
			res, err = solver.Solve(ctx, in)
			return err
		})
		r.attempted++
		if err != nil {
			r.failed++
			return err
		}
		first = append(first, d)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("scenario.generate_ms", median(durMS(gen)), len(gen))
	r.set("core.validate_ms", median(durMS(val)), len(val))
	r.set("core.axis_ms", median(durMS(axis)), len(axis))
	r.set("core.bounds_ms", median(durMS(bnd)), len(bnd))
	r.set("solver.first_solve_ms", median(durMS(first)), len(first))

	cost, machines := res.Cost, res.Machines
	err = r.phases(func(d time.Duration, rec *Recorder) (float64, error) {
		lat := NewSamples(r.sz.keep)
		var sweep, solve, merge, allocs []float64
		setupAllocs := 0
		m := startMeter()
		for i := int64(0); i == 0 || time.Since(m.wall) < d; i++ {
			a0 := r.allocBytes()
			id := rec.Begin("solve", -1, i)
			t0 := time.Now()
			var err error
			res, err = solver.Solve(ctx, in)
			el := time.Since(t0)
			rec.End(id)
			allocs = append(allocs, float64(r.allocBytes()-a0))
			r.attempted++
			if err != nil {
				r.failed++
				return 0, err
			}
			if res.Cost != cost || res.Machines != machines {
				return 0, fmt.Errorf("warm solve %d: cost %v on %d machines, cold solve gave %v on %d",
					i, res.Cost, res.Machines, cost, machines)
			}
			lat.AddDuration(el)
			sweep = append(sweep, ms(res.Decomp.SweepTime))
			solve = append(solve, ms(res.Decomp.SolveTime))
			merge = append(merge, ms(res.Decomp.MergeTime))
			setupAllocs += res.Arena.SetupAllocs
		}
		if rec != nil {
			return lat.Percentiles(0.5)[0], nil
		}
		r.throughput(m, in.N()*lat.Count())
		pct := lat.Percentiles(0.5, 0.9, 0.99)
		r.set("lat_us_p50", pct[0]/1e3, lat.Kept())
		r.set("lat_us_p99", pct[2]/1e3, lat.Kept())
		r.set("cost_ratio", res.Ratio(), 1)
		r.set("solver.warm_solve_ms_p50", pct[0]/1e6, lat.Kept())
		r.set("solver.warm_solve_ms_p90", pct[1]/1e6, lat.Kept())
		r.set("solver.alloc_bytes_per_solve", median(allocs), len(allocs))
		r.set("solver.setup_allocs", float64(setupAllocs), len(allocs))
		r.set("decomp.sweep_ms", median(sweep), len(sweep))
		r.set("decomp.solve_ms", median(solve), len(solve))
		r.set("decomp.merge_ms", median(merge), len(merge))
		r.set("decomp.components", float64(res.Decomp.Components), 1)
		r.set("decomp.workers", float64(res.Decomp.Workers), 1)
		r.set("decomp.largest_component", float64(res.Decomp.LargestComponent), 1)
		return pct[0], nil
	})
	if err != nil {
		return err
	}
	r.settleMem()

	// Output checks. res is the last warm Solve's; its arena-backed schedule
	// stays valid because this Solver solves nothing more.
	root := r.rec.Begin("verify", -1, 0)
	defer r.rec.End(root)
	d, err := r.call("crosscheck", root, func() error { return res.CrossCheck(1e-6) })
	if err != nil {
		return fmt.Errorf("cross-check: %w", err)
	}
	r.set("sim.crosscheck_ms", ms(d), 1)
	if verify != nil {
		return verify(r, root, sc, p, in, res)
	}
	return nil
}

// sameAsSequential checks the decomposed schedule against a Solver without
// the decomposition layer: the layer promises the identical schedule.
func sameAsSequential(r *runner, root int32, _ scenario.Scenario, _ scenario.Params, in *busytime.Instance, res busytime.Result) error {
	seq, err := busytime.New()
	if err != nil {
		return err
	}
	var want busytime.Result
	_, err = r.call("solve", root, func() (err error) {
		want, err = seq.Solve(context.Background(), in)
		return err
	})
	if err != nil {
		return err
	}
	if want.Cost != res.Cost || want.Machines != res.Machines {
		return fmt.Errorf("decomposed solve: cost %v on %d machines, sequential %v on %d",
			res.Cost, res.Machines, want.Cost, want.Machines)
	}
	return nil
}

// opticalCheck rebuilds the wavelength assignment from the schedule; the
// scenario's check fails unless the regenerator count equals the busy time
// (the paper's §4.2 correspondence).
func opticalCheck(r *runner, root int32, sc scenario.Scenario, p scenario.Params, in *busytime.Instance, res busytime.Result) error {
	var got []scenario.Metric
	d, err := r.call("check", root, func() (err error) {
		got, err = sc.Check(p, in, res.Schedule)
		return err
	})
	if err != nil {
		return err
	}
	r.set("optical.check_ms", ms(d), 1)
	for _, m := range got {
		switch m.Name {
		case "regenerators":
			if m.Value != res.Cost {
				return fmt.Errorf("%v regenerators but busy time %v", m.Value, res.Cost)
			}
			r.set("optical.regenerators", m.Value, 1)
		case "wavelengths":
			r.set("optical.wavelengths", m.Value, 1)
		}
	}
	return nil
}
