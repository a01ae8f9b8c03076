package experiments

// Conformance suite: every registered algorithm must produce a complete,
// feasible schedule whose cost respects the lower bounds and whose replay
// matches the analytic cost, on every instance family it accepts; the
// paper's per-class guarantees are asserted against exact optima.

import (
	"context"
	"math"
	"strings"
	"testing"

	"busytime/internal/algo"
	_ "busytime/internal/algo/baselines"
	_ "busytime/internal/algo/boundedlength"
	_ "busytime/internal/algo/cliquealgo"
	"busytime/internal/algo/exact"
	_ "busytime/internal/algo/firstfit"
	"busytime/internal/algo/laminar"
	_ "busytime/internal/algo/portfolio"
	_ "busytime/internal/algo/properfit"
	"busytime/internal/core"
	"busytime/internal/generator"
	"busytime/internal/sim"
)

// families lists the instance classes with their generators and which
// class-restricted algorithms apply.
func families(seed int64) map[string]*core.Instance {
	return map[string]*core.Instance{
		"general": generator.General(seed, 14, 3, 20, 7),
		"proper":  generator.Proper(seed, 14, 3, 20, 7),
		"clique":  generator.Clique(seed, 10, 3, 5, 4),
		"bounded": generator.BoundedLength(seed, 12, 2, 4, 3),
		"laminar": generator.Laminar(seed, 2, 2, 2, 3, 12),
	}
}

func accepts(algName, family string, in *core.Instance) bool {
	switch algName {
	case "clique":
		return in.IsClique()
	case "laminar":
		return laminar.IsLaminar(in.Set())
	case "exact":
		return in.N() <= 14
	case "portfolio":
		return true
	default:
		return true
	}
}

func runSafely(t *testing.T, a algo.Algorithm, in *core.Instance) (s *core.Schedule) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s panicked: %v", a.Name, r)
		}
	}()
	var err error
	if s, err = a.Run(context.Background(), in, new(core.Scratch)); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	return s
}

func TestConformanceAllAlgorithmsAllFamilies(t *testing.T) {
	for _, a := range algo.All() {
		if strings.HasPrefix(a.Name, "zz-") {
			continue // registry-test stubs
		}
		a := a
		t.Run(a.Name, func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				for family, in := range families(seed) {
					if !accepts(a.Name, family, in) {
						continue
					}
					s := runSafely(t, a, in)
					if err := s.Verify(); err != nil {
						t.Fatalf("%s on %s seed %d: %v", a.Name, family, seed, err)
					}
					if !s.Complete() {
						t.Fatalf("%s on %s seed %d: incomplete", a.Name, family, seed)
					}
					if lb := core.BestBound(in); s.Cost() < lb-1e-9 {
						t.Fatalf("%s on %s seed %d: cost %v below LB %v",
							a.Name, family, seed, s.Cost(), lb)
					}
					if err := sim.Check(s, 1e-6); err != nil {
						t.Fatalf("%s on %s seed %d: replay: %v", a.Name, family, seed, err)
					}
				}
			}
		})
	}
}

func TestConformanceGuarantees(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		fams := families(seed)

		opt := func(in *core.Instance) float64 {
			c, err := exact.Cost(in)
			if err != nil {
				t.Fatalf("exact: %v", err)
			}
			return c
		}
		mustRun := func(name string, in *core.Instance) *core.Schedule {
			a, ok := algo.Lookup(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			return runSafely(t, a, in)
		}

		// Theorem 2.1: FirstFit ≤ 4·OPT on every family.
		for family, in := range fams {
			o := opt(in)
			if c := mustRun("firstfit", in).Cost(); c > 4*o+1e-9 {
				t.Errorf("seed %d %s: FirstFit %v > 4·OPT %v", seed, family, c, 4*o)
			}
		}
		// Theorem 3.1: greedy ≤ 2·OPT on proper instances.
		if c := mustRun("properfit", fams["proper"]).Cost(); c > 2*opt(fams["proper"])+1e-9 {
			t.Errorf("seed %d: properfit exceeded 2·OPT", seed)
		}
		// Theorem A.1: clique algorithm ≤ 2·OPT on cliques.
		if c := mustRun("clique", fams["clique"]).Cost(); c > 2*opt(fams["clique"])+1e-9 {
			t.Errorf("seed %d: clique exceeded 2·OPT", seed)
		}
		// Lemma 3.3: Bounded_Length ≤ 2·(per-segment optimum) ⇒ ≤ 2·OPT here
		// (segments solved exactly at this size).
		if c := mustRun("boundedlength", fams["bounded"]).Cost(); c > 2*opt(fams["bounded"])+1e-9 {
			t.Errorf("seed %d: boundedlength exceeded 2·OPT", seed)
		}
		// Laminar level grouping is exactly optimal.
		lam := fams["laminar"]
		if lam.N() <= 14 {
			if c := mustRun("laminar", lam).Cost(); math.Abs(c-opt(lam)) > 1e-9 {
				t.Errorf("seed %d: laminar not optimal", seed)
			}
		}
	}
}
