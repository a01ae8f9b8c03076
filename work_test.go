package busytime_test

import (
	"cmp"
	"context"
	"slices"
	"testing"

	"busytime/internal/algo"
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

// offlineClustered50k is the benchmark ledger's offline-clustered input at
// seed 1: about 4,300 time-disjoint components of up to 12 jobs at g 3.
func offlineClustered50k(tb testing.TB) *core.Instance {
	return scenarioInput(tb, "clustered", scenario.Params{Seed: 1, N: 50000, G: 3})
}

// reportWork reports the capacity-oracle queries and the shard items walked
// per job of a finished schedule as the benchmark metrics queries/job and
// items/job.
func reportWork(b *testing.B, s *core.Schedule) {
	w, n := s.Work(), float64(s.Instance().N())
	b.ReportMetric(float64(w.Queries)/n, "queries/job")
	b.ReportMetric(float64(w.ItemsWalked)/n, "items/job")
}

// componentMajor returns order scattered component-major, the order the
// decomposition layer's chunk runs place a chunk in: the components of in's
// interval graph one after another in start order, each holding its jobs
// in the order they have in order.
func componentMajor(in *core.Instance, order []int32) []int32 {
	comp := make([]int32, in.N())
	c, reach := int32(-1), 0.0
	for _, j := range in.StartOrder() {
		if iv := in.Jobs[j].Iv; c < 0 || iv.Start > reach {
			c, reach = c+1, iv.End
		} else {
			reach = max(reach, iv.End)
		}
		comp[j] = c
	}
	out := slices.Clone(order)
	slices.SortStableFunc(out, func(a, b int32) int { return cmp.Compare(comp[a], comp[b]) })
	return out
}

// TestKernelWorkCeilings pins the placement kernel's work per job for the
// firstfit and bestfit rows, each run on one schedule through its
// decomposition contract's RunComponent, on four inputs: in length order on
// the ledger's optical-lightpath and offline-dense inputs and on the sparse
// input of the root FirstFitN1e4/BestFitN1e4 benches, and on the ledger's
// offline-clustered input in the chunk path's component-major order, all
// components on one schedule. The counts are deterministic, so the ceilings
// hold exactly on any host; a change that lowers the work lowers its
// ceiling.
func TestKernelWorkCeilings(t *testing.T) {
	inputs := []struct {
		name string
		in   *core.Instance
		// chunked scatters the row's order component-major (componentMajor).
		chunked bool
	}{
		{"lightpath", lightpath17k(t), false},
		{"offline-dense", offlineDense100k(t), false},
		{"general-1e4", generator.General(7, 10000, 4, 10000, 30), false},
		{"clustered", offlineClustered50k(t), true},
	}
	// Ceilings per job: oracle queries, the queries that rejected and the
	// shard items the queries walked, the measured counts rounded up at the
	// third decimal.
	ceilings := map[string]map[string][3]float64{
		"lightpath":     {"firstfit": {0.431, 0.133, 9.640}, "bestfit": {0.885, 0.140, 18.097}},
		"offline-dense": {"firstfit": {2.074, 1.118, 19.621}, "bestfit": {2.597, 1.151, 22.962}},
		"general-1e4":   {"firstfit": {1.422, 0.431, 40.642}, "bestfit": {1.476, 0.430, 41.840}},
		"clustered":     {"firstfit": {0.481, 0.297, 5.002}, "bestfit": {0.530, 0.302, 5.439}},
	}
	for _, tc := range inputs {
		for _, row := range []string{"firstfit", "bestfit"} {
			a, _ := algo.Lookup(row)
			d := a.Decompose
			order := d.Order(tc.in)
			if tc.chunked {
				order = componentMajor(tc.in, order)
			}
			sc := new(core.Scratch)
			if err := d.RunComponent(context.Background(), tc.in, order, sc); err != nil {
				t.Fatal(err)
			}
			w, n := sc.LiveSchedule().Work(), float64(tc.in.N())
			queries, rejects, items := float64(w.Queries)/n, float64(w.QueryRejects)/n, float64(w.ItemsWalked)/n
			t.Logf("%s %s (%d jobs): %+v; %.3f queries, %.3f rejections, %.3f items walked per job",
				tc.name, row, tc.in.N(), w, queries, rejects, items)
			limit := ceilings[tc.name][row]
			if queries > limit[0] || rejects > limit[1] || items > limit[2] {
				t.Errorf("%s %s: %.4f queries, %.4f rejections and %.4f items walked per job, ceilings %.3f, %.3f and %.3f",
					tc.name, row, queries, rejects, items, limit[0], limit[1], limit[2])
			}
		}
	}
}
