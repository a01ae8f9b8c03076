package experiments

import (
	"fmt"
	"time"

	"busytime/internal/algo/baselines"
	"busytime/internal/algo/firstfit"
	"busytime/internal/algo/laminar"
	"busytime/internal/algo/localsearch"
	"busytime/internal/core"
	"busytime/internal/generator"
	"busytime/internal/online"
	"busytime/internal/parallel"
	"busytime/internal/scenario"
	"busytime/internal/stats"
)

// Ablations returns the design-choice ablation experiments (DESIGN.md §4,
// "Ablations"). They are extensions, not paper artifacts, so they are
// listed separately from All().
func Ablations() []Experiment {
	return []Experiment{
		{"A1", "ablation: job ordering in FirstFit", A1Ordering},
		{"A3", "ablation: local-search post-pass on FirstFit", A3LocalSearch},
		{"A4", "extension: online policies vs offline FirstFit", A4Online},
		{"A5", "extension: exact level-grouping on laminar instances", A5Laminar},
		{"A6", "ablation: placement kernel vs linear FirstFit", A6MachineIndex},
	}
}

// A5Laminar evaluates the laminar special case: the level-grouping schedule
// provably equals the fractional lower bound (optimal), and the table shows
// how far the paper's general-purpose FirstFit lands from that optimum on
// nested workloads.
func A5Laminar(cfg Config) (*Result, error) {
	cfg = cfg.fill()
	tb := stats.NewTable("A5 — laminar instances (level grouping is optimal)",
		"g", "algorithm", "mean cost/OPT", "max cost/OPT")
	metrics := map[string]float64{}
	for _, g := range []int{2, 3} {
		g := g
		lamRatio, err := ratioStats(cfg.Trials, func(t int) (float64, float64, error) {
			in := generator.Laminar(cfg.Seed+int64(g*97+t), g, 3, 3, 4, 20)
			s, err := laminar.Schedule(in)
			if err != nil {
				return 0, 0, err
			}
			return s.Cost(), core.FractionalBound(in), nil
		})
		if err != nil {
			return nil, err
		}
		ffRatio, err := ratioStats(cfg.Trials, func(t int) (float64, float64, error) {
			in := generator.Laminar(cfg.Seed+int64(g*97+t), g, 3, 3, 4, 20)
			opt, err := laminar.Schedule(in) // provably optimal reference
			if err != nil {
				return 0, 0, err
			}
			return firstfit.Schedule(in).Cost(), opt.Cost(), nil
		})
		if err != nil {
			return nil, err
		}
		tb.AddRow(g, "laminar (exact)", lamRatio.Mean(), lamRatio.Max())
		tb.AddRow(g, "firstfit", ffRatio.Mean(), ffRatio.Max())
		metrics[fmt.Sprintf("g%d/laminarMax", g)] = lamRatio.Max()
		metrics[fmt.Sprintf("g%d/firstfitMax", g)] = ffRatio.Max()
	}
	return &Result{ID: "A5", Name: "laminar extension", Table: tb, Metrics: metrics}, nil
}

// A4Online measures the price of online arrival (assign on reveal,
// irrevocably, no length sort) against the offline FirstFit and the
// fractional bound, on uniform and Poisson workloads.
func A4Online(cfg Config) (*Result, error) {
	cfg = cfg.fill()
	tb := stats.NewTable("A4 — online policies vs offline FirstFit",
		"workload", "policy", "mean cost/LB", "max cost/LB")
	metrics := map[string]float64{}
	poisson, _ := scenario.Lookup("poisson")
	type workload struct {
		name string
		gen  func(t int) (*core.Instance, error)
	}
	workloads := []workload{
		{"uniform", func(t int) (*core.Instance, error) {
			return generator.General(cfg.Seed+int64(t), 80, 3, 60, 18), nil
		}},
		{"poisson", func(t int) (*core.Instance, error) {
			// Rate 1.5 over a horizon of 60: 90 arrivals in expectation.
			return poisson.Instance(scenario.Params{Seed: cfg.Seed + int64(t), N: 90, G: 3, Horizon: 60, MeanLen: 6})
		}},
	}
	for _, w := range workloads {
		insts, err := parallel.MapErr(cfg.Trials, 0, w.gen)
		if err != nil {
			return nil, err
		}
		offline, err := ratioStats(cfg.Trials, func(t int) (float64, float64, error) {
			in := insts[t]
			return firstfit.Schedule(in).Cost(), core.BestBound(in), nil
		})
		if err != nil {
			return nil, err
		}
		tb.AddRow(w.name, "offline firstfit", offline.Mean(), offline.Max())
		metrics[w.name+"/offline/mean"] = offline.Mean()
		for _, polName := range []string{"online-firstfit", "online-bestfit", "online-nextfit"} {
			polName := polName
			sample, err := ratioStats(cfg.Trials, func(t int) (float64, float64, error) {
				in := insts[t]
				return registered(polName)(in).Cost(), core.BestBound(in), nil
			})
			if err != nil {
				return nil, err
			}
			tb.AddRow(w.name, polName, sample.Mean(), sample.Max())
			metrics[w.name+"/"+polName+"/mean"] = sample.Mean()
		}
		// Semi-online lookahead sweep: buffering k future arrivals and
		// extracting longest-first interpolates towards offline FirstFit.
		for _, k := range []int{2, 8, 32} {
			k := k
			sample, err := ratioStats(cfg.Trials, func(t int) (float64, float64, error) {
				in := insts[t]
				s, err := online.RunLookahead(in, k, core.LowestFit)
				if err != nil {
					return 0, 0, err
				}
				return s.Cost(), core.BestBound(in), nil
			})
			if err != nil {
				return nil, err
			}
			tb.AddRow(w.name, fmt.Sprintf("lookahead-%d firstfit", k), sample.Mean(), sample.Max())
			metrics[fmt.Sprintf("%s/lookahead%d/mean", w.name, k)] = sample.Mean()
		}
	}
	return &Result{ID: "A4", Name: "online extension", Table: tb, Metrics: metrics}, nil
}

// A1Ordering isolates step 1 of the paper's FirstFit (the non-increasing
// length sort, which Observation 2.2(b) relies on): the same first-fit rule
// runs under length order, start order, and random order.
func A1Ordering(cfg Config) (*Result, error) {
	cfg = cfg.fill()
	tb := stats.NewTable("A1 — FirstFit ordering ablation",
		"g", "order", "mean cost/LB", "max cost/LB")
	metrics := map[string]float64{}
	for _, g := range []int{2, 4} {
		g := g
		type variant struct {
			name string
			run  func(*core.Instance) *core.Schedule
		}
		variants := []variant{
			{"length (paper)", firstfit.Schedule},
			{"start time", registered("firstfit-start")},
			{"random", func(in *core.Instance) *core.Schedule { return baselines.RandomFit(in, 99) }},
		}
		for _, v := range variants {
			v := v
			sample, err := ratioStats(cfg.Trials, func(t int) (float64, float64, error) {
				in := generator.General(cfg.Seed+int64(g*53+t), 80, g, 60, 18)
				return v.run(in).Cost(), core.BestBound(in), nil
			})
			if err != nil {
				return nil, err
			}
			tb.AddRow(g, v.name, sample.Mean(), sample.Max())
			metrics[fmt.Sprintf("g%d/%s/mean", g, v.name)] = sample.Mean()
		}
	}
	return &Result{ID: "A1", Name: "ordering ablation", Table: tb, Metrics: metrics}, nil
}

// A6MachineIndex ablates the placement kernel (time-bucketed saturation
// bitmap, sharded capacity oracle and its hints) against ScheduleLinear, which probes every machine in order and
// sweeps every job on it. Both paths are exact and the schedules must agree
// bitwise — machine counts and incremental costs included — so the table
// isolates pure placement speed.
func A6MachineIndex(cfg Config) (*Result, error) {
	cfg = cfg.fill()
	tb := stats.NewTable("A6 — placement kernel ablation",
		"n", "variant", "time/run", "machines", "cost")
	metrics := map[string]float64{}
	for _, n := range []int{1000, 4000, 10000} {
		in := generator.General(cfg.Seed, n, 4, float64(n), 30)
		reps := 3
		var idx, scan *core.Schedule
		start := time.Now()
		for r := 0; r < reps; r++ {
			idx = firstfit.Schedule(in)
		}
		idxTime := time.Since(start) / time.Duration(reps)
		start = time.Now()
		for r := 0; r < reps; r++ {
			scan = firstfit.ScheduleLinear(in)
		}
		scanTime := time.Since(start) / time.Duration(reps)
		if idx.Cost() != scan.Cost() || idx.NumMachines() != scan.NumMachines() {
			return nil, fmt.Errorf("A6: variants disagree at n=%d: cost %v/%v machines %d/%d",
				n, idx.Cost(), scan.Cost(), idx.NumMachines(), scan.NumMachines())
		}
		tb.AddRow(n, "kernel", idxTime.Round(time.Microsecond).String(), idx.NumMachines(), idx.Cost())
		tb.AddRow(n, "linear", scanTime.Round(time.Microsecond).String(), scan.NumMachines(), scan.Cost())
		metrics[fmt.Sprintf("n%d/speedup", n)] = float64(scanTime) / float64(idxTime)
	}
	return &Result{ID: "A6", Name: "placement kernel ablation", Table: tb, Metrics: metrics}, nil
}

// A3LocalSearch measures the cost reduction of the move/merge local search
// applied after FirstFit and after arrival-order NextFit.
func A3LocalSearch(cfg Config) (*Result, error) {
	cfg = cfg.fill()
	tb := stats.NewTable("A3 — local-search post-pass",
		"g", "base algorithm", "mean base/LB", "mean improved/LB", "mean gain (%)")
	metrics := map[string]float64{}
	for _, g := range []int{2, 4} {
		g := g
		type variant struct {
			name string
			run  func(*core.Instance) *core.Schedule
		}
		for _, v := range []variant{
			{"firstfit", firstfit.Schedule},
			{"nextfit", registered("nextfit")},
		} {
			var base, improved, gain stats.Sample
			for t := 0; t < cfg.Trials; t++ {
				in := generator.General(cfg.Seed+int64(g*71+t), 60, g, 50, 15)
				lb := core.BestBound(in)
				b := v.run(in)
				imp, err := localsearch.Improve(b, localsearch.Options{MaxRounds: 10})
				if err != nil {
					return nil, err
				}
				if imp.Cost() > b.Cost()+1e-9 {
					return nil, fmt.Errorf("A3: local search increased cost")
				}
				if lb > 0 {
					base.Add(b.Cost() / lb)
					improved.Add(imp.Cost() / lb)
				}
				if b.Cost() > 0 {
					gain.Add(100 * (b.Cost() - imp.Cost()) / b.Cost())
				}
			}
			tb.AddRow(g, v.name, base.Mean(), improved.Mean(), gain.Mean())
			metrics[fmt.Sprintf("g%d/%s/gainPct", g, v.name)] = gain.Mean()
		}
	}
	return &Result{ID: "A3", Name: "local search ablation", Table: tb, Metrics: metrics}, nil
}
