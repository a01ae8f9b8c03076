package bench

import (
	"slices"
	"testing"
)

func TestPercentilesNearestRank(t *testing.T) {
	s := NewSamples(100)
	for _, v := range []int64{50, 10, 40, 20, 30} {
		s.Add(v)
	}
	// n = 5: p50 is the 3rd smallest, p90 and p99 the 5th, p20 the 1st.
	got := s.Percentiles(0.5, 0.9, 0.99, 0.2)
	if want := []float64{30, 50, 50, 10}; !slices.Equal(got, want) {
		t.Fatalf("percentiles = %v, want %v", got, want)
	}
	if s.Count() != 5 || s.Kept() != 5 || s.Mean() != 30 {
		t.Fatalf("count %d kept %d mean %v", s.Count(), s.Kept(), s.Mean())
	}
	if got := NewSamples(4).Percentiles(0.5); got[0] != 0 {
		t.Fatalf("empty p50 = %v", got[0])
	}
}

// A histogram quantises; raw samples do not. Two sample sets 2% apart must
// report medians 2% apart.
func TestPercentilesAreExact(t *testing.T) {
	a, b := NewSamples(1000), NewSamples(1000)
	for i := int64(1); i <= 999; i++ {
		a.Add(700_000_000 + i)
		b.Add(714_000_000 + i)
	}
	pa, pb := a.Percentiles(0.5)[0], b.Percentiles(0.5)[0]
	if pa != 700_000_500 || pb != 714_000_500 {
		t.Fatalf("medians %v and %v", pa, pb)
	}
}

func TestReservoirKeepsBoundAndCounts(t *testing.T) {
	s := NewSamples(64)
	for i := int64(0); i < 10_000; i++ {
		s.Add(i)
	}
	if s.Kept() != 64 || s.Count() != 10_000 || s.Mean() != 4999.5 {
		t.Fatalf("kept %d count %d mean %v", s.Kept(), s.Count(), s.Mean())
	}
	// A uniform reservoir of 0..9999 has its median far from both ends.
	if p := s.Percentiles(0.5)[0]; p < 2000 || p > 8000 {
		t.Fatalf("reservoir median %v", p)
	}
}

func TestMerge(t *testing.T) {
	a, b := NewSamples(10), NewSamples(2)
	a.Add(1)
	for _, v := range []int64{2, 3, 4, 5} {
		b.Add(v)
	}
	a.Merge(b)
	if a.Count() != 5 || a.Kept() != 3 || a.Mean() != 3 {
		t.Fatalf("merged count %d kept %d mean %v", a.Count(), a.Kept(), a.Mean())
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("median of none = %v", m)
	}
}
