package firstfit

import (
	"context"
	"testing"

	"busytime/internal/algo"
	"busytime/internal/core"
	"busytime/internal/generator"
)

// scheduleScratch runs the registered firstfit row on the recycled arena
// sc, as the Solver's warm path does.
func scheduleScratch(in *core.Instance, sc *core.Scratch) *core.Schedule {
	a, _ := algo.Lookup("firstfit")
	s, _ := a.Run(context.Background(), in, sc) // a greedy row never errors
	return s
}

// diffFamilies enumerates the generator families the differential suite
// sweeps; sizes stay modest so the fuzz-style seed loop stays fast.
func diffFamilies(seed int64) []*core.Instance {
	gen := generator.General(seed, 120, 3, 80, 20)
	return []*core.Instance{
		gen,
		generator.Proper(seed, 100, 3, 60, 15),
		generator.Clique(seed, 60, 4, 10, 8),
		generator.BoundedLength(seed, 80, 2, 6, 4),
		generator.Laminar(seed, 3, 3, 3, 4, 20),
		generator.CloudBurst(seed, 150, 6, 200, 10, 4, 0.6),
		generator.LightpathWave(seed, 5, 30, 4, 40, 15, 10),
		generator.WithDemands(gen, seed+1, 3),
	}
}

// assertIdentical fails unless the two schedules are byte-identical: same
// machine count, same job→machine assignment, same per-machine job lists,
// and bitwise-equal costs.
func assertIdentical(t *testing.T, label string, a, b *core.Schedule) {
	t.Helper()
	if a.NumMachines() != b.NumMachines() {
		t.Fatalf("%s: %d machines vs %d", label, a.NumMachines(), b.NumMachines())
	}
	for j := 0; j < a.Instance().N(); j++ {
		if a.MachineOf(j) != b.MachineOf(j) {
			t.Fatalf("%s: job %d on machine %d vs %d", label, j, a.MachineOf(j), b.MachineOf(j))
		}
	}
	for m := 0; m < a.NumMachines(); m++ {
		ja, jb := a.MachineJobs(m), b.MachineJobs(m)
		if len(ja) != len(jb) {
			t.Fatalf("%s: machine %d holds %d vs %d jobs", label, m, len(ja), len(jb))
		}
		for i := range ja {
			if ja[i] != jb[i] {
				t.Fatalf("%s: machine %d slot %d: job %d vs %d", label, m, i, ja[i], jb[i])
			}
		}
	}
	if a.Cost() != b.Cost() {
		t.Fatalf("%s: cost %v vs %v", label, a.Cost(), b.Cost())
	}
}

// TestIndexedMatchesScan is the differential contract of the placement
// kernel: across every generator family and a fuzz-style seed sweep, indexed
// FirstFit must produce byte-identical schedules to ScheduleLinear, the
// independent reference that probes every machine and sweeps every job.
func TestIndexedMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		for fi, in := range diffFamilies(seed) {
			indexed := Schedule(in)
			if err := indexed.Verify(); err != nil {
				t.Fatalf("seed %d family %d: indexed schedule infeasible: %v", seed, fi, err)
			}
			linear := ScheduleLinear(in)
			assertIdentical(t, labelFor(seed, fi, "linear"), indexed, linear)
		}
	}
}

func labelFor(seed int64, family int, variant string) string {
	return "seed=" + itoa(int(seed)) + " family=" + itoa(family) + " vs " + variant
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestIndexedScratchMatchesFresh pins down that the recycled index inside a
// Scratch (bitmap, segment tree, load shards, profiles) is fully reset
// between instances: streaming many different instances through one Scratch
// must reproduce fresh runs byte for byte.
func TestIndexedScratchMatchesFresh(t *testing.T) {
	sc := new(core.Scratch)
	for seed := int64(0); seed < 10; seed++ {
		for fi, in := range diffFamilies(seed) {
			recycled := scheduleScratch(in, sc)
			fresh := Schedule(in)
			assertIdentical(t, labelFor(seed, fi, "scratch"), recycled, fresh)
		}
	}
}

// TestScratchReuseAcrossSizes stresses the pooled arena with a ladder of
// instance sizes through one Scratch — small, large, small again — so every
// backing array is exercised both growing and shrunken-in-place; each
// recycled schedule must be byte-identical to a fresh indexed run and to the
// linear reference.
func TestScratchReuseAcrossSizes(t *testing.T) {
	sc := new(core.Scratch)
	sizes := []int{30, 2500, 100, 1200, 7, 2500, 600}
	for round, n := range sizes {
		in := generator.General(int64(300+round), n, 3+round%4, float64(n)/2+1, 18)
		recycled := scheduleScratch(in, sc)
		if err := recycled.Verify(); err != nil {
			t.Fatalf("round %d (n=%d): recycled schedule infeasible: %v", round, n, err)
		}
		fresh := Schedule(in)
		assertIdentical(t, "size-ladder round "+itoa(round)+" vs fresh", recycled, fresh)
		linear := ScheduleLinear(in)
		assertIdentical(t, "size-ladder round "+itoa(round)+" vs linear", recycled, linear)
	}
}

// TestScratchReuseAcrossFamilies runs every generator family back to back
// through one Scratch and pins each recycled schedule against the linear
// reference, so no family-specific axis shape (degenerate hulls, few distinct
// times, demand weights) can leak state through the recycled arena.
func TestScratchReuseAcrossFamilies(t *testing.T) {
	sc := new(core.Scratch)
	for seed := int64(50); seed < 54; seed++ {
		for fi, in := range diffFamilies(seed) {
			recycled := scheduleScratch(in, sc)
			linear := ScheduleLinear(in)
			assertIdentical(t, labelFor(seed, fi, "scratch-vs-linear"), recycled, linear)
		}
	}
}

// FuzzIndexedMatchesScan drives the differential check from fuzzed seeds and
// shape parameters.
func FuzzIndexedMatchesScan(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(3), uint8(20))
	f.Add(int64(99), uint8(200), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, n, g, maxLen uint8) {
		in := generator.General(seed, int(n)+1, int(g)%8+1, float64(n)/2+1, float64(maxLen)+1)
		indexed := Schedule(in)
		linear := ScheduleLinear(in)
		assertIdentical(t, "fuzz", indexed, linear)
		if err := indexed.Verify(); err != nil {
			t.Fatalf("infeasible: %v", err)
		}
		// The pooled-arena path must agree too, including when the scratch
		// arrives warm from a differently-shaped instance.
		sc := new(core.Scratch)
		warm := generator.General(seed+1, int(maxLen)+2, int(g)%5+1, float64(g)+2, float64(n)/4+1)
		_ = scheduleScratch(warm, sc)
		assertIdentical(t, "fuzz-scratch", scheduleScratch(in, sc), linear)
	})
}
