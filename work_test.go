package busytime_test

import (
	"testing"

	"busytime/internal/core"
	"busytime/internal/generator"
	"busytime/internal/scenario"
)

// scenarioInput builds the named scenario's instance at p.
func scenarioInput(tb testing.TB, name string, p scenario.Params) *core.Instance {
	tb.Helper()
	sc, ok := scenario.Lookup(name)
	if !ok {
		tb.Fatalf("no scenario %q", name)
	}
	in, err := sc.Instance(p)
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// lightpath17k is the benchmark ledger's optical-lightpath input at seed 1:
// the paper's optical application (§4.2), 17,000 lightpaths at g 16.
func lightpath17k(tb testing.TB) *core.Instance {
	return scenarioInput(tb, "lightpath", scenario.Params{Seed: 1, N: 17000, G: 16, Horizon: 64})
}

// offlineDense100k is the benchmark ledger's offline-dense input at seed 1:
// one component of 100k Poisson arrivals at g 4.
func offlineDense100k(tb testing.TB) *core.Instance {
	return scenarioInput(tb, "poisson", scenario.Params{Seed: 1, N: 100000, G: 4, Horizon: 240, MeanLen: 3})
}

// reportQueries reports the capacity-oracle queries per job of a finished
// schedule as the benchmark metric queries/job.
func reportQueries(b *testing.B, s *core.Schedule) {
	b.ReportMetric(float64(s.Work().Queries)/float64(s.Instance().N()), "queries/job")
}

// TestKernelWorkCeilings pins the placement kernel's work per job for the
// firstfit and bestfit rows (sequential, length order) on three inputs: the
// ledger's optical-lightpath and offline-dense inputs and the sparse input
// of the root FirstFitN1e4/BestFitN1e4 benches. The counts are
// deterministic, so the ceilings hold exactly on any host; a change that
// lowers the work lowers its ceiling.
func TestKernelWorkCeilings(t *testing.T) {
	inputs := []struct {
		name string
		in   *core.Instance
	}{
		{"lightpath", lightpath17k(t)},
		{"offline-dense", offlineDense100k(t)},
		{"general-1e4", generator.General(7, 10000, 4, 10000, 30)},
	}
	// Ceilings per job, oracle queries and the queries that rejected: the
	// measured counts rounded up at the third decimal.
	ceilings := map[string]map[string][2]float64{
		"lightpath":     {"firstfit": {0.442, 0.133}, "bestfit": {0.889, 0.140}},
		"offline-dense": {"firstfit": {2.085, 1.118}, "bestfit": {2.607, 1.151}},
		"general-1e4":   {"firstfit": {1.423, 0.431}, "bestfit": {1.476, 0.430}},
	}
	for _, tc := range inputs {
		for _, row := range []string{"firstfit", "bestfit"} {
			s := registered(row)(tc.in, nil)
			w, n := s.Work(), float64(tc.in.N())
			queries, rejects := float64(w.Queries)/n, float64(w.QueryRejects)/n
			t.Logf("%s %s (%d jobs): %+v; %.3f queries, %.3f rejections per job", tc.name, row, tc.in.N(), w, queries, rejects)
			limit := ceilings[tc.name][row]
			if queries > limit[0] || rejects > limit[1] {
				t.Errorf("%s %s: %.4f queries and %.4f rejections per job, ceilings %.3f and %.3f",
					tc.name, row, queries, rejects, limit[0], limit[1])
			}
		}
	}
}
