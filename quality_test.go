package busytime_test

import (
	"context"
	"testing"

	"busytime"
	"busytime/internal/core"
	"busytime/internal/scenario"
)

// TestQualityCeilings pins solution quality per (scenario, registry row) at
// n = 2000 over seeds 1–3: cost / core.BestBound must stay at or under the
// row's ceiling, its measured worst ratio plus 2%. Where the paper proves a
// guarantee for the row's class — FirstFit ≤ 4 (Thm 2.1), the proper
// greedy ≤ 2 on proper instances (Thm 3.1), the clique algorithm ≤ 2 on
// cliques (Thm A.1) — the ceiling must lie under it. The bound is at most
// OPT, so a ratio under the guarantee also keeps cost/OPT under it. Costs
// are deterministic, so the ceilings cannot flake.
func TestQualityCeilings(t *testing.T) {
	rows := []struct {
		scenario, algo string
		ceiling        float64 // measured worst cost/bound + 2%
		guarantee      float64 // the paper's ratio for the class; 0 = none
	}{
		{"general", "firstfit", 1.151, 4},        // worst 1.1281
		{"general", "bestfit", 1.150, 0},         // worst 1.1270
		{"general", "online-firstfit", 1.138, 0}, // worst 1.1156
		{"proper", "properfit", 1.025, 2},        // worst 1.0044
		{"clique", "clique", 1.343, 2},           // worst 1.3161
		{"bounded", "boundedlength", 1.460, 0},   // worst 1.4306
	}
	for _, r := range rows {
		if r.guarantee > 0 && r.ceiling > r.guarantee {
			t.Errorf("%s on %s: ceiling %v above the paper's guarantee %v", r.algo, r.scenario, r.ceiling, r.guarantee)
		}
		sc, ok := scenario.Lookup(r.scenario)
		if !ok {
			t.Fatalf("scenario %q not registered", r.scenario)
		}
		s, err := busytime.New(busytime.WithAlgorithm(r.algo), busytime.WithVerify(true))
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			in, err := sc.Instance(scenario.Params{Seed: seed, N: 2000})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Solve(context.Background(), in)
			if err != nil {
				t.Fatalf("%s on %s seed %d: %v", r.algo, r.scenario, seed, err)
			}
			if ratio := res.Cost / core.BestBound(in); ratio > r.ceiling {
				t.Errorf("%s on %s seed %d: cost/bound %.4f above its ceiling %v", r.algo, r.scenario, seed, ratio, r.ceiling)
			}
		}
	}
}
