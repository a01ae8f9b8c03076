package interval

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func randAxis(r *rand.Rand, n, maxBuckets int) Axis {
	events := make([]float64, n)
	for i := range events {
		events[i] = float64(r.Intn(40)) + r.Float64()*float64(r.Intn(3))
	}
	return NewAxis(events, maxBuckets, nil)
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
	ax := NewAxis(events, 64, nil)
	if ax.NB() > 64 || ax.NB() == 0 {
		t.Fatalf("NB = %d, want in (0, 64]", ax.NB())
	}
	hull, ok := ax.Hull()
	if !ok || hull.Start != lo || hull.End != hi {
		t.Fatalf("hull %v, want [%v,%v]", hull, lo, hi)
	}
}

// TestAxisRangeGeometry fuzzes OverlapRange against the bucket geometry it
// promises: its buckets touch the interval and cover it.
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
		}
	}
}

// TestAxisRanks checks the ranks NewAxis hands out against the values they
// stand for, on inputs small enough for the comparison sort and large
// enough for the radix passes: negative values, −0 next to +0, duplicates
// and decimation. Ranks must order and equate exactly as the values do, the
// boundaries must sit at ranks b·Stride() and Distinct()−1, and events must
// come back unmodified.
func TestAxisRanks(t *testing.T) {
	if ax := NewAxis(nil, 0, nil); ax.NB() != 0 || ax.Distinct() != 0 {
		t.Fatalf("no events: NB %d, Distinct %d", ax.NB(), ax.Distinct())
	}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(300)
		if trial%3 == 0 {
			n = 2048 + r.Intn(6000)
		}
		events := make([]float64, n)
		for i := range events {
			switch r.Intn(5) {
			case 0:
				events[i] = float64(r.Intn(50) - 25) // duplicates
			case 1:
				events[i] = math.Copysign(0, -1)
			case 2:
				events[i] = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(12)-4))
			default:
				events[i] = r.NormFloat64() * 1e3
			}
		}
		orig := append([]float64(nil), events...)
		maxBuckets := []int{0, 7, 64, n / 3}[r.Intn(4)]
		ranks := make([]int32, n)
		ax := NewAxis(events, maxBuckets, ranks)
		for i := range events {
			if math.Float64bits(events[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("trial %d: NewAxis modified event %d", trial, i)
			}
		}
		distinct := append([]float64(nil), events...)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		if ax.Distinct() != len(distinct) {
			t.Fatalf("trial %d: Distinct() = %d, want %d", trial, ax.Distinct(), len(distinct))
		}
		for i, e := range events {
			if got := distinct[ranks[i]]; got != e {
				t.Fatalf("trial %d: event %v got rank %d, the rank of %v", trial, e, ranks[i], got)
			}
		}
		nb := ax.NB()
		if len(distinct) < 2 {
			if nb != 0 {
				t.Fatalf("trial %d: %d distinct events gave %d buckets", trial, len(distinct), nb)
			}
			continue
		}
		if maxBuckets > 0 && nb > maxBuckets {
			t.Fatalf("trial %d: %d buckets above the cap %d", trial, nb, maxBuckets)
		}
		s := ax.Stride()
		if want := (len(distinct) - 2 + s) / s; nb != want {
			t.Fatalf("trial %d: %d buckets at stride %d over %d distinct events, want %d", trial, nb, s, len(distinct), want)
		}
		for b := 0; b < nb; b++ {
			if ax.Boundary(b) != distinct[b*s] {
				t.Fatalf("trial %d: Boundary(%d) = %v, want rank %d's %v", trial, b, ax.Boundary(b), b*s, distinct[b*s])
			}
		}
		if last := distinct[len(distinct)-1]; ax.Boundary(nb) != last {
			t.Fatalf("trial %d: Boundary(NB) = %v, want the largest event %v", trial, ax.Boundary(nb), last)
		}
	}
}
