package bench

import (
	"math"
	"slices"
	"time"
)

// Samples collects raw durations of one timed operation and answers exact
// nearest-rank percentiles over them. It keeps up to a fixed number of
// samples so that its memory does not grow with throughput; past that it
// keeps a uniform reservoir of every sample seen. Count reports every sample
// seen, Kept how many the percentiles rest on.
type Samples struct {
	buf  []int64
	seen int
	sum  int64
	rng  uint64
}

// NewSamples returns a sample set keeping up to keep samples.
func NewSamples(keep int) *Samples {
	return &Samples{buf: make([]int64, 0, keep), rng: 0x9e3779b97f4a7c15}
}

// Add records one duration in nanoseconds.
func (s *Samples) Add(ns int64) {
	s.seen++
	s.sum += ns
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, ns)
		return
	}
	// Reservoir step: keep the new sample with probability cap/seen.
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	if i := s.rng % uint64(s.seen); i < uint64(cap(s.buf)) {
		s.buf[i] = ns
	}
}

// AddDuration records one duration.
func (s *Samples) AddDuration(d time.Duration) { s.Add(int64(d)) }

// Merge adds o's samples to s: its kept ones as if each were added to s,
// the rest to Count and Mean only.
func (s *Samples) Merge(o *Samples) {
	var kept int64
	for _, v := range o.buf {
		s.Add(v)
		kept += v
	}
	s.seen += o.seen - len(o.buf)
	s.sum += o.sum - kept
}

// Count returns how many samples were recorded.
func (s *Samples) Count() int { return s.seen }

// Kept returns how many samples the percentiles are computed over.
func (s *Samples) Kept() int { return len(s.buf) }

// Mean returns the mean of every recorded sample in nanoseconds.
func (s *Samples) Mean() float64 {
	if s.seen == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.seen)
}

// Percentiles returns the nearest-rank q-quantiles (0 < q ≤ 1) in
// nanoseconds: for n kept samples, the ⌈q·n⌉-th smallest. It returns zeros
// when no sample was kept.
func (s *Samples) Percentiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(s.buf) == 0 {
		return out
	}
	sorted := slices.Clone(s.buf)
	slices.Sort(sorted)
	for i, q := range qs {
		out[i] = float64(sorted[nearestRank(q, len(sorted))])
	}
	return out
}

// nearestRank returns the index of the ⌈q·n⌉-th smallest of n values.
func nearestRank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n))) - 1
	return min(max(r, 0), n-1)
}

// median returns the nearest-rank median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return sorted[nearestRank(0.5, len(sorted))]
}
