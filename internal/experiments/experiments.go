// Package experiments implements the paper-reproduction harness: one
// experiment per quantitative artifact of the paper (see DESIGN.md §4).
// Each experiment generates its workload, runs the paper's algorithm and
// the relevant baselines, and reports a table of the measured ratios, plus
// key metrics that the test suite asserts on (approximation guarantees must
// hold on every measured instance).
//
// The paper is an approximation-algorithms paper: its "figures" are proof
// illustrations and its evaluation artifacts are theorems. Every theorem is
// reproduced as a measured table: upper bounds are checked against exact
// optima on small instances and against the fractional lower bound at scale,
// and the lower-bound constructions (Theorem 2.4 / Fig. 4) are instantiated
// verbatim.
package experiments

import (
	"context"
	"fmt"

	"busytime/internal/algo"
	"busytime/internal/algo/baselines"
	"busytime/internal/algo/boundedlength"
	"busytime/internal/algo/cliquealgo"
	"busytime/internal/algo/demand"
	"busytime/internal/algo/exact"
	"busytime/internal/algo/firstfit"
	"busytime/internal/algo/properfit"
	"busytime/internal/core"
	"busytime/internal/generator"
	"busytime/internal/optical"
	"busytime/internal/parallel"
	"busytime/internal/stats"
	"busytime/internal/xrand"
)

// registered returns a registered algorithm as a schedule function that
// runs each instance on a Scratch of its own; the experiments name only
// greedy rows their imports register, which accept every valid instance, so
// an error is a bug and panics.
func registered(name string) func(*core.Instance) *core.Schedule {
	a, ok := algo.Lookup(name)
	if !ok {
		panic("experiments: " + name + " not registered")
	}
	return func(in *core.Instance) *core.Schedule {
		s, err := a.Run(context.Background(), in, new(core.Scratch))
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", name, err))
		}
		return s
	}
}

// Config scales the experiments.
type Config struct {
	// Trials is the number of random instances per table row (default 40).
	Trials int
	// Seed is the base RNG seed; trial t of row r uses Seed + 1000·r + t.
	Seed int64
	// LargeN is the size of the large-instance rows (default 2000).
	LargeN int
}

func (c Config) fill() Config {
	if c.Trials == 0 {
		c.Trials = 40
	}
	if c.LargeN == 0 {
		c.LargeN = 2000
	}
	return c
}

// Result is one experiment's output.
type Result struct {
	ID      string
	Name    string
	Table   *stats.Table
	Metrics map[string]float64
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func(Config) (*Result, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Theorem 2.1: FirstFit ≤ 4·OPT (general instances)", E1FirstFitGeneral},
		{"E2", "Theorem 2.4 / Fig. 4: FirstFit lower-bound family → 3", E2Fig4},
		{"E3", "Theorem 3.1: Greedy ≤ 2·OPT (proper instances)", E3ProperGreedy},
		{"E4", "Theorem 3.2 / Lemma 3.3: Bounded_Length ≤ (2+ε)·OPT", E4BoundedLength},
		{"E5", "Theorem A.1 / Fig. 5: clique algorithm ≤ 2·OPT", E5Clique},
		{"E6", "Observation 1.1: lower-bound quality", E6LowerBounds},
		{"E7", "§4: optical grooming on a path (regenerators & ADMs)", E7Optical},
		{"E8", "§1.1 remark: machine minimization vs busy time", E8MachineMin},
		{"E9", "§3.1 remark: FirstFit → 3 on proper Fig. 4 shift", E9ProperAdversarial},
		{"E10", "§1.3/[15] extension: demands and flexible windows", E10Demand},
	}
}

// ratioStats runs trials (in parallel — each trial must derive all
// randomness from its index, which every caller does via per-trial seeds)
// and returns ratio statistics of alg/reference.
func ratioStats(trials int, f func(t int) (num, den float64, err error)) (*stats.Sample, error) {
	type pair struct{ num, den float64 }
	pairs, err := parallel.MapErr(trials, 0, func(t int) (pair, error) {
		num, den, err := f(t)
		return pair{num, den}, err
	})
	if err != nil {
		return nil, err
	}
	var s stats.Sample
	for _, p := range pairs {
		if p.den == 0 {
			continue
		}
		s.Add(p.num / p.den)
	}
	return &s, nil
}

// E1FirstFitGeneral measures FirstFit against the exact optimum on small
// random instances and against the fractional lower bound at scale, for
// g ∈ {2, 3, 4}. Theorem 2.1 promises ratio ≤ 4 everywhere.
func E1FirstFitGeneral(cfg Config) (*Result, error) {
	cfg = cfg.fill()
	tb := stats.NewTable("E1 — FirstFit vs OPT (Theorem 2.1: ratio ≤ 4)",
		"g", "n", "reference", "mean ratio", "max ratio", "trials")
	metrics := map[string]float64{}
	worst := 0.0
	for _, g := range []int{2, 3, 4} {
		g := g
		small, err := ratioStats(cfg.Trials, func(t int) (float64, float64, error) {
			in := generator.General(cfg.Seed+int64(1000*g+t), 9, g, 18, 7)
			opt, err := exact.Cost(in)
			if err != nil {
				return 0, 0, err
			}
			return firstfit.Schedule(in).Cost(), opt, nil
		})
		if err != nil {
			return nil, err
		}
		tb.AddRow(g, 9, "exact OPT", small.Mean(), small.Max(), small.N())
		if small.Max() > worst {
			worst = small.Max()
		}
		metrics[fmt.Sprintf("g%d/maxRatioOPT", g)] = small.Max()

		large, err := ratioStats(5, func(t int) (float64, float64, error) {
			in := generator.General(cfg.Seed+int64(9000*g+t), cfg.LargeN, g, 1000, 40)
			return firstfit.Schedule(in).Cost(), core.BestBound(in), nil
		})
		if err != nil {
			return nil, err
		}
		tb.AddRow(g, cfg.LargeN, "fractional LB", large.Mean(), large.Max(), large.N())
		metrics[fmt.Sprintf("g%d/maxRatioLB", g)] = large.Max()
		if large.Max() > worst {
			worst = large.Max()
		}
	}
	metrics["worstRatio"] = worst
	return &Result{ID: "E1", Name: "FirstFit general", Table: tb, Metrics: metrics}, nil
}

// E2Fig4 instantiates the Theorem 2.4 family and measures the FirstFit/OPT
// ratio as g grows: it must approach 3 from below, exceeding 3−ε for
// g ≥ 6/ε − 1 (with ε′ = ε/4), while never exceeding 4 (Theorem 2.1).
func E2Fig4(cfg Config) (*Result, error) {
	tb := stats.NewTable("E2 — Fig. 4 adversarial family (Theorem 2.4: ratio → 3)",
		"g", "ε′", "n", "FirstFit", "OPT", "ratio", "limit 3−2ε′ · g/(g+1)")
	metrics := map[string]float64{}
	var last float64
	for _, g := range []int{2, 4, 8, 16, 32} {
		const epsPrime = 0.05
		in, order := generator.Fig4(g, epsPrime)
		ff := firstfit.ScheduleOrder(in, order)
		if err := ff.Verify(); err != nil {
			return nil, err
		}
		opt := float64(g + 1) // analytic OPT of the construction
		// Cross-check the analytic OPT on the smallest instance.
		if g == 2 {
			ex, err := exact.Cost(in)
			if err != nil {
				return nil, err
			}
			if diff := ex - opt; diff > 1e-9 || diff < -1e-9 {
				return nil, fmt.Errorf("E2: exact OPT %v != analytic %v", ex, opt)
			}
		}
		ratio := ff.Cost() / opt
		predicted := (3 - 2*epsPrime) * float64(g) / float64(g+1)
		tb.AddRow(g, epsPrime, in.N(), ff.Cost(), opt, ratio, predicted)
		metrics[fmt.Sprintf("g%d/ratio", g)] = ratio
		last = ratio
	}
	metrics["finalRatio"] = last
	return &Result{ID: "E2", Name: "Fig4 lower bound", Table: tb, Metrics: metrics}, nil
}

// E3ProperGreedy measures the §3.1 greedy on proper instances against exact
// OPT (small) and the fractional bound (large), with FirstFit alongside.
// Theorem 3.1 promises Greedy ≤ 2·OPT on proper instances.
func E3ProperGreedy(cfg Config) (*Result, error) {
	cfg = cfg.fill()
	tb := stats.NewTable("E3 — Greedy (NextFit) on proper instances (Theorem 3.1: ratio ≤ 2)",
		"g", "n", "algorithm", "reference", "mean ratio", "max ratio")
	metrics := map[string]float64{}
	for _, g := range []int{2, 3} {
		g := g
		greedy, err := ratioStats(cfg.Trials, func(t int) (float64, float64, error) {
			in := generator.Proper(cfg.Seed+int64(100*g+t), 9, g, 16, 6)
			opt, err := exact.Cost(in)
			if err != nil {
				return 0, 0, err
			}
			return properfit.Schedule(in).Cost(), opt, nil
		})
		if err != nil {
			return nil, err
		}
		ff, err := ratioStats(cfg.Trials, func(t int) (float64, float64, error) {
			in := generator.Proper(cfg.Seed+int64(100*g+t), 9, g, 16, 6)
			opt, err := exact.Cost(in)
			if err != nil {
				return 0, 0, err
			}
			return firstfit.Schedule(in).Cost(), opt, nil
		})
		if err != nil {
			return nil, err
		}
		tb.AddRow(g, 9, "greedy", "exact OPT", greedy.Mean(), greedy.Max())
		tb.AddRow(g, 9, "firstfit", "exact OPT", ff.Mean(), ff.Max())
		metrics[fmt.Sprintf("g%d/greedyMax", g)] = greedy.Max()
	}
	large, err := ratioStats(5, func(t int) (float64, float64, error) {
		in := generator.Proper(cfg.Seed+int64(777+t), cfg.LargeN, 3, 800, 30)
		return properfit.Schedule(in).Cost(), core.BestBound(in), nil
	})
	if err != nil {
		return nil, err
	}
	tb.AddRow(3, cfg.LargeN, "greedy", "fractional LB", large.Mean(), large.Max())
	metrics["largeMaxVsLB"] = large.Max()
	return &Result{ID: "E3", Name: "proper greedy", Table: tb, Metrics: metrics}, nil
}

// E4BoundedLength measures the §3.2 pipeline: the Lemma 3.3 segmentation
// loss (segment-respecting cost / unrestricted OPT ≤ 2) and the end-to-end
// cost of Bounded_Length, sweeping the length bound d. It also replays the
// witness-guided b-matching path (steps 2(d)–(e)).
func E4BoundedLength(cfg Config) (*Result, error) {
	cfg = cfg.fill()
	tb := stats.NewTable("E4 — Bounded_Length (Theorem 3.2: ratio ≤ 2+ε; Lemma 3.3 split ≤ 2)",
		"d", "g", "n", "quantity", "mean", "max")
	metrics := map[string]float64{}
	for _, d := range []float64{2, 3, 4} {
		d := d
		seg, err := ratioStats(cfg.Trials/2, func(t int) (float64, float64, error) {
			in := generator.BoundedLength(cfg.Seed+int64(300*int(d)+t), 9, 2, 3, d)
			s, opt, err := boundedlength.SegmentationOverhead(in, boundedlength.Options{D: d})
			return s, opt, err
		})
		if err != nil {
			return nil, err
		}
		tb.AddRow(d, 2, 9, "segmented / OPT", seg.Mean(), seg.Max())
		metrics[fmt.Sprintf("d%g/segMax", d)] = seg.Max()

		match, err := ratioStats(cfg.Trials/2, func(t int) (float64, float64, error) {
			in := generator.BoundedLength(cfg.Seed+int64(500*int(d)+t), 20, 3, 5, d)
			witness := firstfit.Schedule(in)
			replayed, err := boundedlength.ScheduleFromWitness(witness)
			if err != nil {
				return 0, 0, err
			}
			return replayed.Cost(), core.BestBound(in), nil
		})
		if err != nil {
			return nil, err
		}
		tb.AddRow(d, 3, 20, "b-matching replay / LB", match.Mean(), match.Max())
	}
	large, err := ratioStats(5, func(t int) (float64, float64, error) {
		in := generator.BoundedLength(cfg.Seed+int64(901+t), cfg.LargeN/2, 3, 40, 4)
		s, err := boundedlength.Schedule(in, boundedlength.Options{D: 4}, new(core.Scratch))
		if err != nil {
			return 0, 0, err
		}
		return s.Cost(), core.BestBound(in), nil
	})
	if err != nil {
		return nil, err
	}
	tb.AddRow(4, 3, cfg.LargeN/2, "end-to-end / LB", large.Mean(), large.Max())
	metrics["largeMaxVsLB"] = large.Max()
	return &Result{ID: "E4", Name: "bounded length", Table: tb, Metrics: metrics}, nil
}

// E5Clique measures the Appendix clique algorithm against exact OPT for
// several g and clique sizes; Theorem A.1 promises ratio ≤ 2. FirstFit runs
// alongside for context.
func E5Clique(cfg Config) (*Result, error) {
	cfg = cfg.fill()
	tb := stats.NewTable("E5 — clique algorithm (Theorem A.1: ratio ≤ 2)",
		"g", "|C|", "algorithm", "mean ratio", "max ratio")
	metrics := map[string]float64{}
	for _, g := range []int{2, 3, 4} {
		for _, n := range []int{8, 12} {
			g, n := g, n
			cl, err := ratioStats(cfg.Trials, func(t int) (float64, float64, error) {
				in := generator.Clique(cfg.Seed+int64(g*1000+n*10+t), n, g, 0, 5)
				opt, err := exact.Cost(in)
				if err != nil {
					return 0, 0, err
				}
				s, err := cliquealgo.Schedule(in)
				if err != nil {
					return 0, 0, err
				}
				return s.Cost(), opt, nil
			})
			if err != nil {
				return nil, err
			}
			ff, err := ratioStats(cfg.Trials, func(t int) (float64, float64, error) {
				in := generator.Clique(cfg.Seed+int64(g*1000+n*10+t), n, g, 0, 5)
				opt, err := exact.Cost(in)
				if err != nil {
					return 0, 0, err
				}
				return firstfit.Schedule(in).Cost(), opt, nil
			})
			if err != nil {
				return nil, err
			}
			tb.AddRow(g, n, "clique", cl.Mean(), cl.Max())
			tb.AddRow(g, n, "firstfit", ff.Mean(), ff.Max())
			metrics[fmt.Sprintf("g%d/n%d/cliqueMax", g, n)] = cl.Max()
		}
	}
	return &Result{ID: "E5", Name: "clique", Table: tb, Metrics: metrics}, nil
}

// E6LowerBounds compares the three lower bounds of the library against the
// exact optimum: Observation 1.1's span and parallelism bounds and the
// dominating fractional bound ∫⌈N_t/g⌉dt.
func E6LowerBounds(cfg Config) (*Result, error) {
	cfg = cfg.fill()
	tb := stats.NewTable("E6 — lower-bound quality (Observation 1.1)",
		"g", "bound", "mean OPT/bound", "max OPT/bound", "tight (%)")
	metrics := map[string]float64{}
	for _, g := range []int{2, 3} {
		g := g
		var span, par, frac stats.Sample
		tight := 0
		for t := 0; t < cfg.Trials; t++ {
			in := generator.General(cfg.Seed+int64(g*77+t), 9, g, 18, 7)
			opt, err := exact.Cost(in)
			if err != nil {
				return nil, err
			}
			b := core.AllBounds(in)
			if b.Span > 0 {
				span.Add(opt / b.Span)
			}
			if b.Parallelism > 0 {
				par.Add(opt / b.Parallelism)
			}
			if b.Fractional > 0 {
				frac.Add(opt / b.Fractional)
				if opt/b.Fractional < 1+1e-9 {
					tight++
				}
			}
		}
		tb.AddRow(g, "span", span.Mean(), span.Max(), "")
		tb.AddRow(g, "parallelism", par.Mean(), par.Max(), "")
		tb.AddRow(g, "fractional", frac.Mean(), frac.Max(),
			fmt.Sprintf("%.0f", 100*float64(tight)/float64(cfg.Trials)))
		metrics[fmt.Sprintf("g%d/minSpanRatio", g)] = span.Min()
		metrics[fmt.Sprintf("g%d/minParRatio", g)] = par.Min()
		metrics[fmt.Sprintf("g%d/minFracRatio", g)] = frac.Min()
	}
	return &Result{ID: "E6", Name: "lower bounds", Table: tb, Metrics: metrics}, nil
}

// E7Optical reproduces the §4 application: color random path traffic via
// the scheduling reduction and count regenerators and ADMs, sweeping the
// grooming factor. It asserts the regenerators == busy-time identity.
func E7Optical(cfg Config) (*Result, error) {
	cfg = cfg.fill()
	tb := stats.NewTable("E7 — optical grooming on a path (§4)",
		"g", "algorithm", "wavelengths", "regenerators", "ADMs", "cost α=0.5")
	metrics := map[string]float64{}
	const nodes, npaths = 40, 120
	for _, g := range []int{1, 2, 4, 8} {
		net := optical.RandomTraffic(cfg.Seed+int64(g), nodes, npaths, 16, g)
		in := net.ToInstance()
		algs := []struct {
			name string
			run  func(*core.Instance) *core.Schedule
		}{
			{"firstfit", firstfit.Schedule},
			{"machine-min", baselines.MachineMin},
			{"nextfit", registered("nextfit")},
		}
		for _, a := range algs {
			s := a.run(in)
			col, err := optical.FromSchedule(net, s)
			if err != nil {
				return nil, err
			}
			if err := col.Validate(); err != nil {
				return nil, err
			}
			reg := col.Regenerators()
			if diff := float64(reg) - s.Cost(); diff > 1e-9 || diff < -1e-9 {
				return nil, fmt.Errorf("E7: regenerators %d != busy time %v", reg, s.Cost())
			}
			tb.AddRow(g, a.name, col.Wavelengths(), reg, col.ADMs(), col.Cost(0.5))
			metrics[fmt.Sprintf("g%d/%s/regen", g, a.name)] = float64(reg)
		}
	}
	return &Result{ID: "E7", Name: "optical", Table: tb, Metrics: metrics}, nil
}

// E8MachineMin contrasts machine-count minimization (polynomial, §1.1
// remark) with busy-time minimization: the coloring-based schedule uses the
// minimum ⌈ω/g⌉ machines but pays more busy time than FirstFit.
func E8MachineMin(cfg Config) (*Result, error) {
	cfg = cfg.fill()
	tb := stats.NewTable("E8 — machines vs busy time (§1.1 remark)",
		"g", "algorithm", "mean machines", "mean cost", "mean cost/LB")
	metrics := map[string]float64{}
	for _, g := range []int{2, 4} {
		var mmMach, mmCost, mmRatio, ffMach, ffCost, ffRatio stats.Sample
		for t := 0; t < cfg.Trials; t++ {
			in := generator.General(cfg.Seed+int64(g*31+t), 60, g, 40, 12)
			lb := core.BestBound(in)
			mm := baselines.MachineMin(in)
			ff := firstfit.Schedule(in)
			mmMach.Add(float64(mm.NumMachines()))
			ffMach.Add(float64(ff.NumMachines()))
			mmCost.Add(mm.Cost())
			ffCost.Add(ff.Cost())
			if lb > 0 {
				mmRatio.Add(mm.Cost() / lb)
				ffRatio.Add(ff.Cost() / lb)
			}
		}
		tb.AddRow(g, "machine-min", mmMach.Mean(), mmCost.Mean(), mmRatio.Mean())
		tb.AddRow(g, "firstfit", ffMach.Mean(), ffCost.Mean(), ffRatio.Mean())
		metrics[fmt.Sprintf("g%d/machineMinMachines", g)] = mmMach.Mean()
		metrics[fmt.Sprintf("g%d/firstfitMachines", g)] = ffMach.Mean()
		metrics[fmt.Sprintf("g%d/machineMinCost", g)] = mmCost.Mean()
		metrics[fmt.Sprintf("g%d/firstfitCost", g)] = ffCost.Mean()
	}
	return &Result{ID: "E8", Name: "machine minimization", Table: tb, Metrics: metrics}, nil
}

// E9ProperAdversarial runs the §3.1 closing remark: on the ranked-shift
// proper variant of Fig. 4, FirstFit (worst-case tie order) approaches
// ratio 3 while the proper greedy stays ≤ 2.
func E9ProperAdversarial(cfg Config) (*Result, error) {
	tb := stats.NewTable("E9 — proper Fig. 4 shift (§3.1 remark)",
		"g", "n", "FirstFit ratio", "Greedy ratio")
	metrics := map[string]float64{}
	for _, g := range []int{2, 4, 8, 16} {
		const epsPrime = 0.05
		delta := epsPrime / float64(2*g*g)
		in, order := generator.Fig4Proper(g, epsPrime, delta)
		if !in.IsProper() {
			return nil, fmt.Errorf("E9: instance not proper")
		}
		opt := float64(g + 1) // analytic OPT carries over (delta → 0 effects are O(gδ))
		ff := firstfit.ScheduleOrder(in, order)
		gr := properfit.Schedule(in)
		if err := ff.Verify(); err != nil {
			return nil, err
		}
		if err := gr.Verify(); err != nil {
			return nil, err
		}
		ffr, grr := ff.Cost()/opt, gr.Cost()/opt
		tb.AddRow(g, in.N(), ffr, grr)
		metrics[fmt.Sprintf("g%d/firstfit", g)] = ffr
		metrics[fmt.Sprintf("g%d/greedy", g)] = grr
	}
	return &Result{ID: "E9", Name: "proper adversarial", Table: tb, Metrics: metrics}, nil
}

// E10Demand evaluates the demand/flexible extension: fixed-interval jobs
// with random demands under FirstFit, and flexible windows under the demand
// scheduler, against demand-weighted lower bounds.
func E10Demand(cfg Config) (*Result, error) {
	cfg = cfg.fill()
	tb := stats.NewTable("E10 — demands and flexible windows ([15] extension)",
		"variant", "g", "mean ratio", "max ratio", "reference")
	metrics := map[string]float64{}
	for _, g := range []int{3, 4} {
		g := g
		fixed, err := ratioStats(cfg.Trials, func(t int) (float64, float64, error) {
			base := generator.General(cfg.Seed+int64(g*13+t), 40, g, 30, 10)
			in := generator.WithDemands(base, cfg.Seed+int64(t), g)
			return firstfit.Schedule(in).Cost(), core.BestBound(in), nil
		})
		if err != nil {
			return nil, err
		}
		tb.AddRow("fixed+demands firstfit", g, fixed.Mean(), fixed.Max(), "fractional LB")
		metrics[fmt.Sprintf("g%d/fixedMax", g)] = fixed.Max()
	}
	for _, slack := range []float64{0, 3} {
		slack := slack
		flex, err := ratioStats(cfg.Trials, func(t int) (float64, float64, error) {
			in := flexWorkload(cfg.Seed+int64(t)+int64(slack*100), 30, 3, slack)
			res, err := demand.Schedule(in)
			if err != nil {
				return 0, 0, err
			}
			return res.Schedule.Cost(), in.WorkBound(), nil
		})
		if err != nil {
			return nil, err
		}
		tb.AddRow(fmt.Sprintf("flexible slack=%g", slack), 3, flex.Mean(), flex.Max(), "work bound")
		metrics[fmt.Sprintf("slack%g/max", slack)] = flex.Max()
	}
	return &Result{ID: "E10", Name: "demand extension", Table: tb, Metrics: metrics}, nil
}

// flexWorkload builds a random flexible instance (local helper mirroring the
// demand package's test generator, kept here to avoid exporting test code).
func flexWorkload(seed int64, n, g int, slackMax float64) *demand.FlexInstance {
	in := &demand.FlexInstance{Name: fmt.Sprintf("flex(seed=%d)", seed), G: g}
	r := xrand.New(seed)
	for i := 0; i < n; i++ {
		rel := r.Float64() * 40
		proc := 0.5 + r.Float64()*8
		in.Jobs = append(in.Jobs, demand.FlexJob{
			ID:      i,
			Release: rel,
			Due:     rel + proc + r.Float64()*slackMax,
			Proc:    proc,
			Demand:  1 + r.Intn(g),
		})
	}
	return in
}
