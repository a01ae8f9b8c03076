package core

import (
	"math/rand"
	"testing"

	"busytime/internal/interval"
)

// TestJobSpansMatchAxis pins the rank arithmetic of Axis against float
// boundaries the test derives from the sorted distinct endpoints (rank
// b·stride, and the largest) at strides 1, 2, 3 and 7, on integral and
// continuous endpoints with point jobs: every job's span names its
// endpoints, every boundary's rank names its boundary, and buckets, within
// and CrossedBy equal brute-force scans of the float boundaries, on job
// spans and, for buckets and within, on arbitrary rank pairs, as windows
// and saturated runs are.
func TestJobSpansMatchAxis(t *testing.T) {
	for _, integral := range []bool{true, false} {
		for _, stride := range []int{1, 2, 3, 7} {
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

// checkSpanArithmetic checks ia's spans, boundary ranks, bucket, within and
// crossing ranges against in's endpoints; times[r] is the endpoint of rank r.
func checkSpanArithmetic(t *testing.T, in *Instance, ia *Axis, times []float64, r *rand.Rand) {
	t.Helper()
	if ia.last != len(times)-1 {
		t.Fatalf("last rank %d, want %d", ia.last, len(times)-1)
	}
	// bounds[b] is boundary b: the endpoint of rank b·stride, and the
	// largest endpoint last.
	var bounds []float64
	if len(times) >= 2 {
		for b := 0; b*ia.stride < len(times)-1; b++ {
			bounds = append(bounds, times[b*ia.stride])
		}
		bounds = append(bounds, times[len(times)-1])
	}
	if nb := max(len(bounds)-1, 0); ia.NB() != nb {
		t.Fatalf("stride %d: %d buckets, want %d", ia.stride, ia.NB(), nb)
	}
	for b := range bounds {
		if got := times[ia.BoundaryRank(b)]; got != bounds[b] {
			t.Fatalf("stride %d: boundary %d at rank %d is %v, want %v", ia.stride, b, ia.BoundaryRank(b), got, bounds[b])
		}
	}
	// brute scans every bucket or boundary b < n for those where in holds,
	// returning the first and last (lo > hi: none).
	brute := func(n int, in func(b int) bool) (lo, hi int) {
		lo, hi = 0, -1
		for b := 0; b < n; b++ {
			if in(b) {
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
		if s, e := ia.JobRanks(j); s != w.start || e != w.end {
			t.Fatalf("stride %d: job %d: JobRanks (%d, %d), span %v", ia.stride, j, s, e, w)
		}
		lo, hi := ia.CrossedBy(j)
		if wlo, whi := brute(len(bounds), func(b int) bool { return job.Start < bounds[b] && bounds[b] < job.End }); !sameRange(lo, hi, wlo, whi) {
			t.Fatalf("stride %d: job %d %v: CrossedBy [%d,%d], brute force [%d,%d]", ia.stride, j, job, lo, hi, wlo, whi)
		}
	}
	for _, w := range spans {
		iv := interval.New(times[w.start], times[w.end])
		lo, hi := ia.buckets(w)
		if wlo, whi := brute(ia.nb, func(b int) bool { return bounds[b] <= iv.End && iv.Start <= bounds[b+1] }); !sameRange(lo, hi, wlo, whi) {
			t.Fatalf("stride %d: span %v = %v: buckets [%d,%d], brute force [%d,%d]", ia.stride, w, iv, lo, hi, wlo, whi)
		}
		if ia.nb == 0 {
			continue
		}
		lo, hi = ia.within(w)
		if wlo, whi := brute(ia.nb, func(b int) bool { return iv.Start <= bounds[b] && bounds[b+1] <= iv.End }); !sameRange(lo, hi, wlo, whi) {
			t.Fatalf("stride %d: span %v = %v: within [%d,%d], brute force [%d,%d]", ia.stride, w, iv, lo, hi, wlo, whi)
		}
	}
}

// TestAxisDecimationRespectsCapAndEndpoints checks the stride decimation
// on random instances under random bucket caps: the bucket count obeys the
// cap, the stride is the smallest that does, the bucket count is
// ⌈(distinct−1)/stride⌉, and the first and last boundaries are the
// smallest and largest endpoints.
func TestAxisDecimationRespectsCapAndEndpoints(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		ivs := make([]interval.Interval, 1+r.Intn(500))
		for i := range ivs {
			s := float64(r.Intn(400)) + r.Float64()*float64(r.Intn(3))
			ivs[i] = interval.New(s, s+float64(r.Intn(20)))
		}
		in := NewInstance(2, ivs...)
		times := rankTimes(in)
		segs := len(times) - 1
		limit := 1 + r.Intn(2*segs+1)
		ia := buildInstanceAxis(in, limit)
		if segs < 1 {
			if ia.nb != 0 {
				t.Fatalf("trial %d: %d distinct endpoints gave %d buckets", trial, len(times), ia.nb)
			}
			continue
		}
		s := ia.stride
		if ia.nb > limit || s > 1 && (segs+s-2)/(s-1) <= limit {
			t.Fatalf("trial %d: %d segments under cap %d: stride %d, %d buckets", trial, segs, limit, s, ia.nb)
		}
		if want := (segs + s - 1) / s; ia.nb != want {
			t.Fatalf("trial %d: %d buckets at stride %d over %d segments, want %d", trial, ia.nb, s, segs, want)
		}
		if lo, hi := times[ia.BoundaryRank(0)], times[ia.BoundaryRank(ia.nb)]; lo != times[0] || hi != times[segs] {
			t.Fatalf("trial %d: boundaries span [%v, %v], endpoints [%v, %v]", trial, lo, hi, times[0], times[segs])
		}
	}
}

// TestIndexedPlacementOnDecimatedAxis drives the FirstFit and BestFit rules on
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
		if stride := in.TimeAxis().stride; stride < 2 {
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
			rec := ff.record(j)
			if got, want := ff.apply(LowestFit, &rec), bruteFirstFit(brute, j); got != want {
				t.Fatalf("seed %d job %d: FirstFit chose machine %d, brute force %d", seed, j, got, want)
			}
			rec = bf.record(j)
			if got, want := bf.apply(BestFit, &rec), naiveBestFit(naive, j); got != want {
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
