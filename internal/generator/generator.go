// Package generator builds the workloads used by tests, examples and the
// benchmark harness: seeded random instances of each structural class the
// paper analyzes (general, proper, clique, bounded-length, demand-weighted)
// and the deterministic adversarial families of Theorem 2.4 (Fig. 4) and the
// §3.1 closing remark (its proper ranked-shift variant).
//
// All generators are deterministic in their inputs: the same seed yields the
// same instance. Randomness comes from the seedable splitmix64 generator of
// internal/xrand rather than math/rand, so drawing an instance allocates
// nothing beyond the instance itself and the stream is stable across
// platforms.
package generator

import (
	"fmt"
	"sort"

	"busytime/internal/core"
	"busytime/internal/interval"
	"busytime/internal/xrand"
)

// General returns n jobs with starts uniform in [0, horizon) and lengths
// uniform in (0, maxLen], parallelism g.
func General(seed int64, n, g int, horizon, maxLen float64) *core.Instance {
	r := xrand.New(seed)
	ivs := make([]interval.Interval, n)
	for i := range ivs {
		s := r.Float64() * horizon
		ivs[i] = interval.New(s, s+r.Float64()*maxLen)
	}
	in := core.NewInstance(g, ivs...)
	in.Name = fmt.Sprintf("general(seed=%d,n=%d,g=%d)", seed, n, g)
	return in
}

// Proper returns a proper instance: starts sorted ascending and ends forced
// strictly increasing, so no interval properly contains another while
// lengths still vary in (0, maxLen].
func Proper(seed int64, n, g int, horizon, maxLen float64) *core.Instance {
	r := xrand.New(seed)
	starts := make([]float64, n)
	for i := range starts {
		starts[i] = r.Float64() * horizon
	}
	sort.Float64s(starts)
	const eps = 1e-6
	ivs := make([]interval.Interval, n)
	prevEnd := -1e18
	for i, s := range starts {
		e := s + eps + r.Float64()*maxLen
		if e <= prevEnd {
			e = prevEnd + eps
		}
		prevEnd = e
		ivs[i] = interval.New(s, e)
	}
	in := core.NewInstance(g, ivs...)
	in.Name = fmt.Sprintf("proper(seed=%d,n=%d,g=%d)", seed, n, g)
	return in
}

// Clique returns n jobs that all contain the point t: job i spans
// [t-a, t+b] with a, b uniform in (0, reach].
func Clique(seed int64, n, g int, t, reach float64) *core.Instance {
	r := xrand.New(seed)
	ivs := make([]interval.Interval, n)
	for i := range ivs {
		a := r.Float64() * reach
		b := r.Float64() * reach
		ivs[i] = interval.New(t-a, t+b)
	}
	in := core.NewInstance(g, ivs...)
	in.Name = fmt.Sprintf("clique(seed=%d,n=%d,g=%d)", seed, n, g)
	return in
}

// BoundedLength returns n jobs with integral starts in [0, segments·d) and
// real lengths in [1, d] — the §3.2 model (lengths in [1, d], integral start
// times).
func BoundedLength(seed int64, n, g, segments int, d float64) *core.Instance {
	r := xrand.New(seed)
	ivs := make([]interval.Interval, n)
	horizon := int(float64(segments) * d)
	if horizon < 1 {
		horizon = 1
	}
	for i := range ivs {
		s := float64(r.Intn(horizon))
		ivs[i] = interval.New(s, s+1+r.Float64()*(d-1))
	}
	in := core.NewInstance(g, ivs...)
	in.Name = fmt.Sprintf("bounded(seed=%d,n=%d,g=%d,d=%g)", seed, n, g, d)
	return in
}

// Clustered returns a multi-component instance with a controlled component
// structure: `clusters` time windows of width clusterLen separated by unit
// gaps, each holding `per` jobs whose starts are uniform in the window and
// whose lengths are uniform in (0, maxLen], clipped so no job escapes its
// window. Every window is one connected component of the interval graph (the
// windows are gap-separated and each window's jobs share a common core once
// per ≥ 2 — and even sparse windows can only split into smaller components,
// never merge across windows), which makes component count and size directly
// steerable: the knob the decomposition-layer benchmarks need.
func Clustered(seed int64, clusters, per, g int, clusterLen, maxLen float64) *core.Instance {
	if clusters < 1 || per < 1 {
		panic("generator: Clustered requires clusters ≥ 1 and per ≥ 1")
	}
	if clusterLen <= 0 || maxLen <= 0 {
		panic("generator: Clustered requires positive clusterLen and maxLen")
	}
	if maxLen > clusterLen {
		maxLen = clusterLen
	}
	r := xrand.New(seed)
	ivs := make([]interval.Interval, 0, clusters*per)
	for c := 0; c < clusters; c++ {
		winStart := float64(c) * (clusterLen + 1)
		winEnd := winStart + clusterLen
		for k := 0; k < per; k++ {
			s := winStart + r.Float64()*(clusterLen-maxLen)
			e := s + r.Float64()*maxLen
			if e > winEnd {
				e = winEnd
			}
			ivs = append(ivs, interval.New(s, e))
		}
	}
	in := core.NewInstance(g, ivs...)
	in.Name = fmt.Sprintf("clustered(seed=%d,k=%d,per=%d,g=%d)", seed, clusters, per, g)
	return in
}

// WithDemands returns a copy of in with pseudo-random demands in
// [1, maxDemand] (clamped to g).
func WithDemands(in *core.Instance, seed int64, maxDemand int) *core.Instance {
	r := xrand.New(seed)
	out := in.Clone()
	if maxDemand > out.G {
		maxDemand = out.G
	}
	if maxDemand < 1 {
		maxDemand = 1
	}
	for i := range out.Jobs {
		out.Jobs[i].Demand = 1 + r.Intn(maxDemand)
	}
	out.Name = fmt.Sprintf("%s+demands(max=%d)", in.Name, maxDemand)
	return out
}

// Laminar returns a strictly laminar instance (any two jobs nested or
// strictly disjoint): `roots` top-level jobs of length rootLen separated by
// unit gaps, each recursively subdivided into up to maxChildren strictly
// interior children per level, down to maxDepth nesting levels.
func Laminar(seed int64, g, roots, maxChildren, maxDepth int, rootLen float64) *core.Instance {
	r := xrand.New(seed)
	var ivs []interval.Interval
	var grow func(iv interval.Interval, depth int)
	grow = func(iv interval.Interval, depth int) {
		ivs = append(ivs, iv)
		if depth >= maxDepth || iv.Len() < 1e-3 {
			return
		}
		k := r.Intn(maxChildren + 1)
		if k == 0 {
			return
		}
		// Split the interior into k child slots with strict margins.
		margin := iv.Len() * 0.05
		inner := interval.New(iv.Start+margin, iv.End-margin)
		slot := inner.Len() / float64(k)
		for c := 0; c < k; c++ {
			lo := inner.Start + float64(c)*slot
			hi := lo + slot
			gap := slot * 0.1
			child := interval.New(lo+gap*r.Float64(), hi-gap*(r.Float64()+0.5))
			if child.Len() <= 0 {
				continue
			}
			grow(child, depth+1)
		}
	}
	for i := 0; i < roots; i++ {
		start := float64(i) * (rootLen + 1)
		grow(interval.New(start, start+rootLen), 1)
	}
	in := core.NewInstance(g, ivs...)
	in.Name = fmt.Sprintf("laminar(seed=%d,roots=%d,g=%d)", seed, roots, g)
	return in
}

// CloudBurst returns a cloud-trace-like instance of n jobs over [0, horizon):
// a uniform background load punctuated by `bursts` short arrival storms, the
// pattern of batch jobs piling onto a cluster. A burstFrac fraction of the
// jobs starts inside a randomly placed burst window of width horizon/(4·
// bursts), and job lengths are exponential with mean meanLen (capped at
// 10·meanLen so instances stay bounded). Deterministic in its inputs.
func CloudBurst(seed int64, n, g int, horizon, meanLen float64, bursts int, burstFrac float64) *core.Instance {
	if bursts < 1 {
		bursts = 1
	}
	if burstFrac < 0 {
		burstFrac = 0
	}
	if burstFrac > 1 {
		burstFrac = 1
	}
	r := xrand.New(seed)
	centers := make([]float64, bursts)
	for i := range centers {
		centers[i] = r.Float64() * horizon
	}
	width := horizon / float64(4*bursts)
	ivs := make([]interval.Interval, n)
	for i := range ivs {
		var s float64
		if r.Float64() < burstFrac {
			c := centers[r.Intn(bursts)]
			s = c + (r.Float64()-0.5)*width
			if s < 0 {
				s = 0
			}
		} else {
			s = r.Float64() * horizon
		}
		l := r.ExpFloat64() * meanLen
		if l > 10*meanLen {
			l = 10 * meanLen
		}
		ivs[i] = interval.New(s, s+l)
	}
	in := core.NewInstance(g, ivs...)
	in.Name = fmt.Sprintf("cloudburst(seed=%d,n=%d,g=%d,bursts=%d)", seed, n, g, bursts)
	return in
}

// LightpathWave returns an optical-network-like instance: lightpath requests
// arrive in `waves` (think scheduled backup or data-migration windows), wave
// w centered at w·period with its perWave requests' starts spread uniformly
// over [center, center+spread] and holding times uniform in (0, 2·meanLen].
// With g interpreted as the number of wavelengths groomable onto one fiber,
// minimizing busy time minimizes total fiber activation, the §4 application.
// Deterministic in its inputs.
func LightpathWave(seed int64, waves, perWave, g int, period, spread, meanLen float64) *core.Instance {
	r := xrand.New(seed)
	ivs := make([]interval.Interval, 0, waves*perWave)
	for w := 0; w < waves; w++ {
		center := float64(w) * period
		for k := 0; k < perWave; k++ {
			s := center + r.Float64()*spread
			ivs = append(ivs, interval.New(s, s+r.Float64()*2*meanLen))
		}
	}
	in := core.NewInstance(g, ivs...)
	in.Name = fmt.Sprintf("lightwave(seed=%d,waves=%d,per=%d,g=%d)", seed, waves, perWave, g)
	return in
}

// Fig4 builds the lower-bound family of Theorem 2.4 (Fig. 4) for parallelism
// g ≥ 2 and 0 < epsPrime < 1/2, together with the adversarial processing
// order under which FirstFit uses g machines over [0, 3−2ε′].
//
// Jobs (all of length 1, so any order is a valid FirstFit length order):
//   - g "left" jobs  [0, 1]
//   - g·(g−1) "middle" jobs [1−ε′, 2−ε′]
//   - g "right" jobs [2−2ε′, 3−2ε′]
//
// OPT packs all lefts on one machine, all rights on one machine and the
// middles g-per-machine on g−1 machines: OPT = g+1. The adversarial order
// interleaves left_i, its g−1 middles, right_i, driving FirstFit to
// g·(3−2ε′); the ratio approaches 3 as g→∞ and ε′→0.
func Fig4(g int, epsPrime float64) (*core.Instance, []int32) {
	if g < 2 {
		panic("generator: Fig4 requires g ≥ 2")
	}
	if epsPrime <= 0 || epsPrime >= 0.5 {
		panic("generator: Fig4 requires 0 < ε′ < 1/2")
	}
	left := interval.New(0, 1)
	mid := interval.New(1-epsPrime, 2-epsPrime)
	right := interval.New(2-2*epsPrime, 3-2*epsPrime)
	var ivs []interval.Interval
	var order []int32
	for i := 0; i < g; i++ {
		order = append(order, int32(len(ivs)))
		ivs = append(ivs, left)
		for k := 0; k < g-1; k++ {
			order = append(order, int32(len(ivs)))
			ivs = append(ivs, mid)
		}
		order = append(order, int32(len(ivs)))
		ivs = append(ivs, right)
	}
	in := core.NewInstance(g, ivs...)
	in.Name = fmt.Sprintf("fig4(g=%d,eps'=%g)", g, epsPrime)
	return in, order
}

// Fig4Proper is the §3.1 closing-remark variant of Fig4: the middle-column
// jobs receive a tiny ranked shift k·delta so that no interval properly
// contains another (duplicates are allowed in a proper family, but the shift
// additionally makes the middles pairwise distinct). On this proper instance
// the greedy NextFit stays within 2·OPT while FirstFit under the returned
// adversarial order still approaches ratio 3.
//
// delta must satisfy 0 < g·(g−1)·delta < epsPrime so shifts never change the
// overlap pattern.
func Fig4Proper(g int, epsPrime, delta float64) (*core.Instance, []int32) {
	if g < 2 {
		panic("generator: Fig4Proper requires g ≥ 2")
	}
	maxShift := float64(g*(g-1)) * delta
	if delta <= 0 || maxShift >= epsPrime {
		panic("generator: Fig4Proper requires 0 < g(g-1)·delta < ε′")
	}
	left := interval.New(0, 1)
	right := interval.New(2-2*epsPrime, 3-2*epsPrime)
	var ivs []interval.Interval
	var order []int32
	shift := 0
	for i := 0; i < g; i++ {
		order = append(order, int32(len(ivs)))
		ivs = append(ivs, left)
		for k := 0; k < g-1; k++ {
			d := float64(shift) * delta
			shift++
			order = append(order, int32(len(ivs)))
			ivs = append(ivs, interval.New(1-epsPrime+d, 2-epsPrime+d))
		}
		order = append(order, int32(len(ivs)))
		ivs = append(ivs, right)
	}
	in := core.NewInstance(g, ivs...)
	in.Name = fmt.Sprintf("fig4proper(g=%d,eps'=%g,delta=%g)", g, epsPrime, delta)
	return in, order
}
