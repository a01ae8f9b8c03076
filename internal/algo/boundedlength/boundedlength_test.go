package boundedlength

import (
	"math"
	"testing"
	"testing/quick"

	"busytime/internal/algo"
	"busytime/internal/algo/exact"
	"busytime/internal/algo/firstfit"
	"busytime/internal/core"
	"busytime/internal/generator"
	"busytime/internal/interval"
)

func iv(s, e float64) interval.Interval { return interval.New(s, e) }

func TestRegistered(t *testing.T) {
	if _, ok := algo.Lookup("boundedlength"); !ok {
		t.Fatal("boundedlength not registered")
	}
}

func TestSegments(t *testing.T) {
	in := core.NewInstance(2, iv(0, 1), iv(2.5, 4), iv(3, 5), iv(6.1, 7))
	buckets, nums := Segments(in, 3)
	if len(buckets) != 3 {
		t.Fatalf("buckets = %v", buckets)
	}
	want := [][]int{{0, 1}, {2}, {3}}
	for i := range want {
		if len(buckets[i]) != len(want[i]) {
			t.Fatalf("bucket %d = %v, want %v", i, buckets[i], want[i])
		}
		for k := range want[i] {
			if buckets[i][k] != want[i][k] {
				t.Errorf("bucket %d = %v, want %v", i, buckets[i], want[i])
			}
		}
	}
	if nums[0] != 0 || nums[1] != 1 || nums[2] != 2 {
		t.Errorf("segment numbers = %v", nums)
	}
}

func TestRejectsOverlongJobs(t *testing.T) {
	in := core.NewInstance(2, iv(0, 10))
	if _, err := Schedule(in, Options{D: 3}, new(core.Scratch)); err == nil {
		t.Error("job longer than d accepted")
	}
}

func TestNoSegmentMixing(t *testing.T) {
	in := generator.BoundedLength(5, 40, 3, 6, 4)
	s, err := Schedule(in, Options{D: 4}, new(core.Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < s.NumMachines(); m++ {
		segs := map[int]bool{}
		for _, j := range s.MachineJobs(m) {
			segs[int(math.Floor(in.Jobs[j].Iv.Start/4))] = true
		}
		if len(segs) > 1 {
			t.Errorf("machine %d mixes segments %v", m, segs)
		}
	}
}

func TestLemma33SegmentedWithinTwiceOPT(t *testing.T) {
	// End-to-end: segmented cost ≤ 2·(1+tiny)·OPT on exactly solvable
	// instances (per-segment exact ⇒ loss comes only from segmentation).
	for seed := int64(0); seed < 25; seed++ {
		in := generator.BoundedLength(seed, 9, 2, 3, 3)
		seg, opt, err := SegmentationOverhead(in, Options{D: 3, ExactLimit: 12})
		if err != nil {
			t.Skipf("seed %d: %v", seed, err)
		}
		if opt == 0 {
			continue
		}
		if seg > 2*opt+1e-9 {
			t.Errorf("seed %d: segmented %v > 2·OPT %v", seed, seg, 2*opt)
		}
	}
}

func TestDefaultDFromMaxLength(t *testing.T) {
	in := core.NewInstance(2, iv(0, 2), iv(1, 4), iv(5, 6))
	s, err := Schedule(in, Options{}, new(core.Scratch)) // d = 3
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMatchISsToMachines(t *testing.T) {
	in := core.NewInstance(2, iv(0, 1), iv(2, 3), iv(0.5, 1.5))
	machines := []MachineSpec{{Window: iv(0, 3)}}
	iss := [][]int{{0, 1}, {2}} // two ISs: {J0,J1} disjoint, {J2}
	assign, ok, err := MatchISsToMachines(in, machines, iss)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if assign[0] != 0 || assign[1] != 0 {
		t.Errorf("assign = %v, want both on machine 0", assign)
	}
}

func TestMatchISsCapacityLimitsISCount(t *testing.T) {
	// g = 1: a single machine can take only one IS.
	in := core.NewInstance(1, iv(0, 1), iv(0.2, 0.8))
	machines := []MachineSpec{{Window: iv(0, 1)}}
	iss := [][]int{{0}, {1}}
	_, ok, err := MatchISsToMachines(in, machines, iss)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("matching claimed feasible beyond machine capacity")
	}
}

func TestMatchISsRejectsNonIndependent(t *testing.T) {
	in := core.NewInstance(2, iv(0, 2), iv(1, 3))
	machines := []MachineSpec{{Window: iv(0, 3)}}
	if _, _, err := MatchISsToMachines(in, machines, [][]int{{0, 1}}); err == nil {
		t.Error("overlapping IS accepted")
	}
}

func TestMatchISsWindowTooSmall(t *testing.T) {
	in := core.NewInstance(2, iv(0, 5))
	machines := []MachineSpec{{Window: iv(0, 3)}}
	_, ok, err := MatchISsToMachines(in, machines, [][]int{{0}})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("IS matched to machine whose window cannot contain it")
	}
}

func TestScheduleFromWitnessReproducesCost(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		in := generator.BoundedLength(seed, 14, 2, 4, 3)
		witness := firstfit.Schedule(in)
		s, err := ScheduleFromWitness(witness)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Cost bounded by the witness's machine hull lengths.
		var hulls float64
		for m := 0; m < witness.NumMachines(); m++ {
			set := witness.MachineSet(m)
			if h, ok := set.Hull(); ok {
				hulls += h.Len()
			}
		}
		if s.Cost() > hulls+1e-9 {
			t.Errorf("seed %d: matched cost %v > hull budget %v", seed, s.Cost(), hulls)
		}
	}
}

func TestQuickScheduleFeasibleAndBounded(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		in := generator.BoundedLength(seed, int(nn%30)+1, 3, 5, 4)
		s, err := Schedule(in, Options{D: 4, ExactLimit: 8}, new(core.Scratch))
		if err != nil {
			return false
		}
		if s.Verify() != nil || !s.Complete() {
			return false
		}
		return s.Cost() >= core.BestBound(in)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEmptyInstance(t *testing.T) {
	s, err := Schedule(core.NewInstance(2), Options{D: 1}, new(core.Scratch))
	if err != nil || s.Cost() != 0 {
		t.Errorf("empty: %v cost=%v", err, s.Cost())
	}
}

func TestSegmentationOverheadSmall(t *testing.T) {
	in := generator.BoundedLength(3, 8, 2, 2, 2)
	seg, opt, err := SegmentationOverhead(in, Options{D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if seg < opt-1e-9 {
		t.Errorf("segmented %v below OPT %v", seg, opt)
	}
	_, err = exact.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBoundedLength200(b *testing.B) {
	in := generator.BoundedLength(7, 200, 3, 10, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(in, Options{D: 4, ExactLimit: 10}, new(core.Scratch)); err != nil {
			b.Fatal(err)
		}
	}
}
