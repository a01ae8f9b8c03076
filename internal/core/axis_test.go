package core

import (
	"math/rand"
	"testing"

	"busytime/internal/interval"
)

// TestJobSpansMatchAxis pins the rank arithmetic of instanceAxis against the
// float axis at strides 1, 2 and 3, on integral and continuous endpoints
// with point jobs: every job's span names its endpoints, its bucket range
// equals Axis.OverlapRange, every boundary's rank names the boundary, and
// within equals a brute-force scan of Boundary(b) on job spans and on
// arbitrary rank pairs, as saturated runs are.
func TestJobSpansMatchAxis(t *testing.T) {
	for _, integral := range []bool{true, false} {
		for stride := 1; stride <= 3; stride++ {
			r := rand.New(rand.NewSource(int64(stride)))
			ivs := make([]interval.Interval, 400)
			for i := range ivs {
				s, l := r.Float64()*200, r.Float64()*10
				if integral {
					s, l = float64(r.Intn(200)), float64(r.Intn(10))
				}
				if i%10 == 0 {
					l = 0 // a point job
				}
				if i%10 == 1 && i > 1 {
					s, l = ivs[i-2].End, 0 // a point job on another job's end
				}
				ivs[i] = interval.New(s, s+l)
			}
			in := NewInstance(2, ivs...)
			times := rankTimes(in)
			ia := buildInstanceAxis(in, (len(times)-1+stride-1)/stride)
			if ia.stride != stride {
				t.Fatalf("integral=%v: stride %d, want %d", integral, ia.stride, stride)
			}
			checkSpanArithmetic(t, in, ia, times, r)
		}
	}
	// Point-only instance: the degenerate axis has no buckets at all.
	in := NewInstance(2, interval.New(5, 5), interval.New(5, 5))
	ia := buildInstanceAxis(in, maxTimeBuckets)
	if ia.nb != 0 {
		t.Fatalf("point-only instance has %d buckets", ia.nb)
	}
	checkSpanArithmetic(t, in, ia, rankTimes(in), rand.New(rand.NewSource(1)))
}

// checkSpanArithmetic checks ia's spans, bucket ranges, boundary ranks and
// within ranges against in's endpoints and ia.ax; times[r] is the endpoint
// of rank r.
func checkSpanArithmetic(t *testing.T, in *Instance, ia *instanceAxis, times []float64, r *rand.Rand) {
	t.Helper()
	if ia.last != len(times)-1 {
		t.Fatalf("last rank %d, want %d", ia.last, len(times)-1)
	}
	for b := 0; b <= ia.nb && ia.nb > 0; b++ {
		if got := times[ia.boundaryRank(b)]; got != ia.ax.Boundary(b) {
			t.Fatalf("stride %d: boundary %d at rank %d is %v, want %v", ia.stride, b, ia.boundaryRank(b), got, ia.ax.Boundary(b))
		}
	}
	// bruteWithin scans every bucket for those inside [times[a], times[b]].
	bruteWithin := func(w span) (lo, hi int) {
		lo, hi = 0, -1
		for b := 0; b < ia.nb; b++ {
			if times[w.start] <= ia.ax.Boundary(b) && ia.ax.Boundary(b+1) <= times[w.end] {
				if lo > hi {
					lo = b
				}
				hi = b
			}
		}
		return lo, hi
	}
	sameRange := func(lo, hi, wlo, whi int) bool { return lo == wlo && hi == whi || lo > hi && wlo > whi }
	var spans []span
	for j := range in.Jobs {
		spans = append(spans, ia.jobSpan(j))
	}
	for range 2000 {
		a, b := int32(r.Intn(len(times))), int32(r.Intn(len(times)))
		spans = append(spans, span{min(a, b), max(a, b)})
	}
	for j := range in.Jobs {
		job, w := in.Jobs[j].Iv, ia.jobSpan(j)
		if times[w.start] != job.Start || times[w.end] != job.End {
			t.Fatalf("stride %d: job %d %v has span %v = [%v, %v]", ia.stride, j, job, w, times[w.start], times[w.end])
		}
		lo, hi := ia.buckets(w)
		if wlo, whi := ia.ax.OverlapRange(job); !sameRange(lo, hi, wlo, whi) {
			t.Fatalf("stride %d: job %d %v: buckets [%d,%d], OverlapRange [%d,%d]", ia.stride, j, job, lo, hi, wlo, whi)
		}
	}
	for _, w := range spans {
		lo, hi := ia.within(w)
		if wlo, whi := bruteWithin(w); !sameRange(lo, hi, wlo, whi) {
			t.Fatalf("stride %d: span %v = [%v, %v]: within [%d,%d], brute force [%d,%d]",
				ia.stride, w, times[w.start], times[w.end], lo, hi, wlo, whi)
		}
	}
}

// TestIndexedPlacementOnDecimatedAxis drives FirstFitAssign and BestFit on
// 35k-job instances whose axis is past 2¹⁶ distinct endpoints, so it is
// decimated and most job endpoints are not bucket boundaries. Only the jobs
// starting in a narrow window are placed, which keeps the brute-force
// references cheap; both indexed rules must pick the machines bruteFirstFit
// and naiveBestFit pick.
func TestIndexedPlacementOnDecimatedAxis(t *testing.T) {
	const n, g = 35000, 4
	for seed := int64(1); seed <= 2; seed++ {
		r := rand.New(rand.NewSource(seed))
		ivs := make([]interval.Interval, n)
		for i := range ivs {
			s := r.Float64() * 1000
			ivs[i] = interval.New(s, s+r.Float64()*20)
		}
		in := NewInstance(g, ivs...)
		for i := range in.Jobs {
			in.Jobs[i].Demand = 1 + r.Intn(g)
		}
		if stride := in.timeAxis().stride; stride < 2 {
			t.Fatalf("seed %d: axis stride %d; the decimated axis is untested", seed, stride)
		}
		ff, brute := NewSchedule(in), NewSchedule(in)
		bf, naive := NewSchedule(in), NewSchedule(in)
		placed := 0
		for j, job := range in.Jobs {
			if job.Iv.Start < 500 || job.Iv.Start > 510 {
				continue
			}
			placed++
			if got, want := ff.FirstFitAssign(j), bruteFirstFit(brute, j); got != want {
				t.Fatalf("seed %d job %d: FirstFitAssign chose machine %d, brute force %d", seed, j, got, want)
			}
			if got, want := bf.BestFit(j), naiveBestFit(naive, j); got != want {
				t.Fatalf("seed %d job %d: BestFit chose machine %d, naive %d", seed, j, got, want)
			}
		}
		if placed < 200 || ff.NumMachines() < 64 {
			t.Fatalf("seed %d: %d jobs on %d machines; too few to exercise the oracle", seed, placed, ff.NumMachines())
		}
		if ff.Cost() != brute.Cost() || bf.Cost() != naive.Cost() {
			t.Fatalf("seed %d: cost: FirstFit %v vs %v, BestFit %v vs %v", seed, ff.Cost(), brute.Cost(), bf.Cost(), naive.Cost())
		}
	}
}
