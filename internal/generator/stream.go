package generator

import (
	"busytime/internal/interval"
	"busytime/internal/xrand"
)

// StreamJob is one arrival of a rolling-horizon stream: the closed interval
// the job occupies and its capacity demand.
type StreamJob struct {
	Iv     interval.Interval
	Demand int
}

// Stream synthesizes a deterministic arrival sequence for the rolling-
// horizon online engine: n jobs in non-decreasing start order whose
// population of simultaneously live jobs hovers around `live` (by Little's
// law, arrival rate × mean duration = mean population: inter-arrival gaps
// are exponential with mean 1 and durations uniform in (0, 2·live]), with
// demands uniform in [1, maxDemand]. Durations are bounded — no job outlives
// 2·live time units — so the oldest live job, and with it the session's
// retained window, is hard-capped at a small multiple of the target
// population instead of growing with the longest exponential straggler.
// Feeding the stream to a session exercises arrivals and natural departures
// continuously — after the warm-up ramp every placement retires roughly one
// earlier job — so the live window, not the stream length, bounds the
// session's state.
func Stream(seed int64, n, live, maxDemand int) []StreamJob {
	if live < 1 {
		live = 1
	}
	if maxDemand < 1 {
		maxDemand = 1
	}
	r := xrand.New(seed)
	jobs := make([]StreamJob, n)
	clock := 0.0
	for i := range jobs {
		clock += r.ExpFloat64()
		dur := r.Float64() * 2 * float64(live)
		jobs[i] = StreamJob{
			Iv:     interval.Interval{Start: clock, End: clock + dur},
			Demand: 1 + r.Intn(maxDemand),
		}
	}
	return jobs
}
