package interval

import (
	"math/rand"
	"testing"
)

func randAxis(r *rand.Rand, n, maxBuckets int) Axis {
	events := make([]float64, n)
	for i := range events {
		events[i] = float64(r.Intn(40)) + r.Float64()*float64(r.Intn(3))
	}
	return NewAxis(events, maxBuckets)
}

// TestAxisBoundariesStrictlyIncrease pins the structural invariant every
// range computation relies on.
func TestAxisBoundariesStrictlyIncrease(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		ax := randAxis(r, 1+r.Intn(200), 1+r.Intn(32))
		for b := 1; b <= ax.NB(); b++ {
			if ax.Boundary(b-1) >= ax.Boundary(b) {
				t.Fatalf("trial %d: boundaries not increasing at %d: %v >= %v",
					trial, b, ax.Boundary(b-1), ax.Boundary(b))
			}
		}
	}
}

// TestAxisDecimationRespectsCapAndEndpoints checks the stride decimation:
// the bucket count obeys the cap and the hull endpoints survive exactly.
func TestAxisDecimationRespectsCapAndEndpoints(t *testing.T) {
	events := make([]float64, 1000)
	for i := range events {
		events[i] = float64(i)
	}
	lo, hi := events[0], events[len(events)-1]
	ax := NewAxis(events, 64)
	if ax.NB() > 64 || ax.NB() == 0 {
		t.Fatalf("NB = %d, want in (0, 64]", ax.NB())
	}
	hull, ok := ax.Hull()
	if !ok || hull.Start != lo || hull.End != hi {
		t.Fatalf("hull %v, want [%v,%v]", hull, lo, hi)
	}
}

// TestAxisRangeGeometry fuzzes the range queries against the bucket
// geometry they promise: OverlapRange buckets touch the interval and cover
// it, and WithinRange buckets lie inside it.
func TestAxisRangeGeometry(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		ax := randAxis(r, 2+r.Intn(100), []int{0, 8, 1 << 16}[r.Intn(3)])
		nb := ax.NB()
		if nb == 0 {
			continue
		}
		for q := 0; q < 50; q++ {
			var iv Interval
			if r.Intn(3) == 0 && nb > 0 {
				// Exact boundary endpoints exercise the touching cases.
				a, b := r.Intn(nb+1), r.Intn(nb+1)
				if a > b {
					a, b = b, a
				}
				iv = Interval{Start: ax.Boundary(a), End: ax.Boundary(b)}
			} else {
				s := ax.Boundary(0) + r.Float64()*(ax.Boundary(nb)-ax.Boundary(0))
				iv = Interval{Start: s, End: s + r.Float64()*10}
			}
			lo, hi := ax.OverlapRange(iv)
			for b := 0; b < nb; b++ {
				bucket := Interval{Start: ax.Boundary(b), End: ax.Boundary(b + 1)}
				if bucket.Overlaps(iv) != (lo <= b && b <= hi) {
					t.Fatalf("trial %d: OverlapRange(%v) = [%d,%d], bucket %d %v overlap=%v",
						trial, iv, lo, hi, b, bucket, bucket.Overlaps(iv))
				}
			}
			if lo <= hi && iv.Start >= ax.Boundary(0) && iv.End <= ax.Boundary(nb) {
				if ax.Boundary(lo) > iv.Start || ax.Boundary(hi+1) < iv.End {
					t.Fatalf("trial %d: OverlapRange(%v) = [%d,%d] does not cover the interval", trial, iv, lo, hi)
				}
			}
			wlo, whi := ax.WithinRange(iv)
			for b := 0; b < nb; b++ {
				inside := iv.Start <= ax.Boundary(b) && ax.Boundary(b+1) <= iv.End
				if inside != (wlo <= b && b <= whi) {
					t.Fatalf("trial %d: WithinRange(%v) = [%d,%d], bucket %d inside=%v",
						trial, iv, wlo, whi, b, inside)
				}
			}
		}
	}
}
