package busytime_test

import (
	"cmp"
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
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

// reportWork reports the capacity-oracle queries, the shard items walked,
// the saturated runs marked and the bitmap words loaded per job of a
// finished schedule as the benchmark metrics queries/job, items/job,
// marks/job and loads/job.
func reportWork(b *testing.B, s *core.Schedule) {
	w, n := s.Work(), float64(s.Instance().N())
	b.ReportMetric(float64(w.Queries)/n, "queries/job")
	b.ReportMetric(float64(w.ItemsWalked)/n, "items/job")
	b.ReportMetric(float64(w.Marks)/n, "marks/job")
	b.ReportMetric(float64(w.BitmapLoads)/n, "loads/job")
}

// scheduleHash returns the FNV-1a hash of s's job→machine map: the machine
// of every job index, in index order, as four little-endian bytes.
func scheduleHash(s *core.Schedule) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for j := range s.Instance().N() {
		binary.LittleEndian.PutUint32(buf[:], uint32(s.MachineOf(j)))
		h.Write(buf[:])
	}
	return h.Sum64()
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
// ceiling. It also pins the schedule of every run (schedulePin), so a
// change to the kernel's hints that moves work without moving schedules
// keeps passing, and one that moves a schedule fails.
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
	// Ceilings per job: oracle queries, the queries that rejected, the
	// shard items the queries walked, the saturated runs marked in the
	// bitmap, and the bitmap words the scans loaded and the marks stored,
	// the measured counts rounded up at the third decimal.
	ceilings := map[string]map[string][6]float64{
		"lightpath":     {"firstfit": {0.374, 0.076, 8.555, 0.099, 175.838, 1.824}, "bestfit": {0.818, 0.073, 16.624, 0.103, 191.504, 1.831}},
		"offline-dense": {"firstfit": {0.974, 0.018, 7.931, 1.026, 76.592, 33.056}, "bestfit": {1.463, 0.019, 10.958, 1.033, 98.102, 33.461}},
		"general-1e4":   {"firstfit": {0.992, 0.001, 25.007, 0.602, 21.728, 5.038}, "bestfit": {1.046, 0.001, 26.396, 0.600, 21.775, 5.034}},
		"clustered":     {"firstfit": {0.439, 0.255, 4.509, 0.263, 8.586, 0.840}, "bestfit": {0.487, 0.259, 4.945, 0.272, 8.586, 0.862}},
	}
	pins := map[string]map[string]schedulePin{
		"lightpath": {
			"firstfit": {732, 34238, 0x7994280a802ccf84},
			"bestfit":  {733, 33904, 0xa117656c9079c684},
		},
		"offline-dense": {
			"firstfit": {348, 77832.30032934195, 0x688056b3bf1caa88},
			"bestfit":  {349, 77864.7894681136, 0x16e5b3a43c48393a},
		},
		"general-1e4": {
			"firstfit": {8, 48083.202536018856, 0x12839ce071c4df11},
			"bestfit":  {8, 48042.693407506944, 0xf7904bd0a0d5dd73},
		},
		"clustered": {
			"firstfit": {4, 71332.08614082329, 0x12d84070f9dc41b6},
			"bestfit":  {4, 70758.15822639776, 0x9752a44cd02ed7a4},
		},
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
			s := sc.LiveSchedule()
			w, n := s.Work(), float64(tc.in.N())
			per := [6]float64{float64(w.Queries) / n, float64(w.QueryRejects) / n, float64(w.ItemsWalked) / n, float64(w.Marks) / n,
				float64(w.BitmapLoads) / n, float64(w.BitmapStores) / n}
			t.Logf("%s %s (%d jobs): %+v; %.3f queries, %.3f rejections, %.3f items walked, %.3f marks, %.3f bitmap loads and %.3f bitmap stores per job",
				tc.name, row, tc.in.N(), w, per[0], per[1], per[2], per[3], per[4], per[5])
			limit := ceilings[tc.name][row]
			for i, name := range []string{"queries", "rejections", "items walked", "marks", "bitmap loads", "bitmap stores"} {
				if per[i] > limit[i] {
					t.Errorf("%s %s: %.4f %s per job, ceiling %.3f", tc.name, row, per[i], name, limit[i])
				}
			}
			got := schedulePin{s.NumMachines(), s.Cost(), scheduleHash(s)}
			if pin := pins[tc.name][row]; got.machines != pin.machines || math.Float64bits(got.cost) != math.Float64bits(pin.cost) || got.hash != pin.hash {
				t.Errorf("%s %s: schedule {machines: %d, cost: %v, hash: %#x}, pinned {machines: %d, cost: %v, hash: %#x}",
					tc.name, row, got.machines, got.cost, got.hash, pin.machines, pin.cost, pin.hash)
			}
		}
	}
}

// schedulePin is a schedule's fingerprint: its machine count, the bits of
// its cost and the scheduleHash of its job→machine map.
type schedulePin struct {
	machines int
	cost     float64
	hash     uint64
}
