package core

import (
	"math"
	"slices"
	"sync/atomic"
	"unsafe"
)

// cmpCoord is the three-way comparator of finite time coordinates used by
// the slices.SortFunc orders in this package; NaN endpoints are rejected at
// instance validation, so the IEEE comparison is a total order.
func cmpCoord(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// SpanBound returns the span lower bound of Observation 1.1:
// OPT ≥ span(J), since at any covered instant at least one machine is busy.
func SpanBound(in *Instance) float64 { return in.Span() }

// ParallelismBound returns the parallelism lower bound of Observation 1.1,
// demand-weighted: OPT ≥ Σ Demand_j·len(J_j) / g, since g is the maximum
// capacity any machine delivers per unit of busy time.
func ParallelismBound(in *Instance) float64 {
	return in.WeightedLen() / float64(in.G)
}

// FractionalBound returns ∫ ⌈D_t/g⌉ dt, where D_t is the demand-weighted
// number of jobs active at time t (open-interior depth; isolated touching
// points have measure zero). At any instant every feasible solution runs at
// least ⌈D_t/g⌉ busy machines, so this dominates both Observation 1.1
// bounds: ⌈D_t/g⌉ ≥ 1 wherever D_t ≥ 1 (span) and ⌈D_t/g⌉ ≥ D_t/g
// (parallelism).
func FractionalBound(in *Instance) float64 {
	type ev struct {
		t     float64
		delta int
	}
	evs := make([]ev, 0, 2*len(in.Jobs))
	for _, j := range in.Jobs {
		if j.Iv.IsPoint() {
			continue
		}
		evs = append(evs, ev{j.Iv.Start, j.Demand}, ev{j.Iv.End, -j.Demand})
	}
	if len(evs) == 0 {
		return 0
	}
	slices.SortFunc(evs, func(a, b ev) int {
		if a.t != b.t {
			return cmpCoord(a.t, b.t)
		}
		return a.delta - b.delta // ends before starts: open-interior depth
	})
	g := float64(in.G)
	var total float64
	depth := 0
	prev := evs[0].t
	for _, e := range evs {
		if e.t > prev && depth > 0 {
			total += math.Ceil(float64(depth)/g) * (e.t - prev)
		}
		if e.t > prev {
			prev = e.t
		}
		depth += e.delta
	}
	return total
}

// BestBound returns the strongest known lower bound for the instance, which
// is the fractional bound (it dominates span and parallelism). Kept as a
// named entry point so harness code reads as "cost / BestBound".
func BestBound(in *Instance) float64 { return FractionalBound(in) }

// Bounds bundles all lower bounds for reporting.
type Bounds struct {
	Span        float64
	Parallelism float64
	Fractional  float64
}

// AllBounds computes every lower bound of the instance.
func AllBounds(in *Instance) Bounds {
	return Bounds{
		Span:        SpanBound(in),
		Parallelism: ParallelismBound(in),
		Fractional:  FractionalBound(in),
	}
}

// CachedBounds returns AllBounds computed once per instance and cached like
// the time axis and the job orders, so steady-state drivers (a warm
// Solver's repeat solves of one instance, a batch's per-item lower bound) read
// the bounds without re-running the sweep or allocating.
func (in *Instance) CachedBounds() Bounds {
	if p := (*Bounds)(atomic.LoadPointer(&in.bounds)); p != nil {
		return *p
	}
	b := AllBounds(in)
	atomic.StorePointer(&in.bounds, unsafe.Pointer(&b))
	return b
}
