package interval

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestAxisRanks checks the ranks Ranks hands out against the values they
// stand for, on inputs small enough for the comparison sort and large
// enough for the radix passes: negative values, −0 next to +0 and
// duplicates. Ranks must order and equate exactly as the values do, the
// distinct count must be the number of distinct values, and events must
// come back unmodified.
func TestAxisRanks(t *testing.T) {
	if d := Ranks(nil, nil); d != 0 {
		t.Fatalf("no events: %d distinct", d)
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
		ranks := make([]int32, n)
		d := Ranks(events, ranks)
		for i := range events {
			if math.Float64bits(events[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("trial %d: Ranks modified event %d", trial, i)
			}
		}
		distinct := append([]float64(nil), events...)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		if d != len(distinct) {
			t.Fatalf("trial %d: %d distinct, want %d", trial, d, len(distinct))
		}
		for i, e := range events {
			if got := distinct[ranks[i]]; got != e {
				t.Fatalf("trial %d: event %v got rank %d, the rank of %v", trial, e, ranks[i], got)
			}
		}
	}
}
