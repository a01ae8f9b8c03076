// Package portfolio provides the "just schedule it well" entry point: it
// runs every applicable algorithm of the library on the instance — the
// paper's FirstFit always; the proper greedy, the clique algorithm, the
// laminar exact solver and Bounded_Length when the instance is in their
// class; the exact solver when the instance is small — applies the
// move/merge local search to the best candidate, and returns the cheapest
// feasible schedule found.
//
// The portfolio inherits the strongest guarantee that applies: at worst
// 4·OPT everywhere (FirstFit, Theorem 2.1), 2·OPT on proper and clique
// instances, optimal on laminar and on exactly solvable instances.
package portfolio

import (
	"context"
	"fmt"

	"busytime/internal/algo"
	"busytime/internal/algo/baselines"
	"busytime/internal/algo/boundedlength"
	"busytime/internal/algo/cliquealgo"
	"busytime/internal/algo/exact"
	"busytime/internal/algo/firstfit"
	"busytime/internal/algo/laminar"
	"busytime/internal/algo/localsearch"
	"busytime/internal/algo/properfit"
	"busytime/internal/core"
)

func init() {
	algo.Register(algo.Algorithm{
		Name:        "portfolio",
		Description: "best of all applicable algorithms plus local search",
		// The portfolio keeps several candidate schedules alive at once, so
		// none of them can draw from the single-live-schedule scratch: each
		// candidate is drawn from a Scratch of its own, and sc is unused.
		Run: func(_ context.Context, in *core.Instance, _ *core.Scratch) (*core.Schedule, error) {
			s, _, err := Schedule(in)
			return s, err
		},
	})
}

// ExactLimit is the instance size up to which the portfolio also tries the
// exponential exact solver.
const ExactLimit = 14

// Schedule returns the cheapest schedule found and the name of the
// algorithm that produced it (suffixed with "+ls" when local search
// improved it).
func Schedule(in *core.Instance) (*core.Schedule, string, error) {
	if err := in.Validate(); err != nil {
		return nil, "", err
	}
	type candidate struct {
		name string
		s    *core.Schedule
	}
	cands := []candidate{
		{"firstfit", firstfit.Schedule(in)},
		{"bestfit", algo.RunGreedy(in, new(core.Scratch), in.LengthOrder(), core.BestFit)},
	}
	unitDemands := true
	for _, j := range in.Jobs {
		if j.Demand != 1 {
			unitDemands = false
			break
		}
	}
	if unitDemands {
		cands = append(cands, candidate{"machine-min", baselines.MachineMin(in)})
	}
	if in.IsProper() {
		cands = append(cands, candidate{"properfit", properfit.Schedule(in)})
	}
	if in.N() > 0 && in.IsClique() {
		if s, err := cliquealgo.Schedule(in); err == nil {
			cands = append(cands, candidate{"clique", s})
		}
	}
	if unitDemands && laminar.IsLaminar(in.Set()) {
		if s, err := laminar.Schedule(in); err == nil {
			cands = append(cands, candidate{"laminar", s})
		}
	}
	if s, err := boundedlength.Schedule(in, boundedlength.Options{}, new(core.Scratch)); err == nil {
		cands = append(cands, candidate{"boundedlength", s})
	}
	if in.N() <= ExactLimit {
		if s, err := exact.Solve(in); err == nil {
			cands = append(cands, candidate{"exact", s})
		}
	}

	best := cands[0]
	for _, c := range cands[1:] {
		if c.s.Cost() < best.s.Cost() {
			best = c
		}
	}
	improved, err := localsearch.Improve(best.s, localsearch.Options{})
	if err != nil {
		return nil, "", fmt.Errorf("portfolio: local search: %w", err)
	}
	name := best.name
	if improved.Cost() < best.s.Cost()-1e-12 {
		name += "+ls"
		best.s = improved
	}
	if err := best.s.Verify(); err != nil {
		return nil, "", fmt.Errorf("portfolio: winner infeasible: %w", err)
	}
	return best.s, name, nil
}
