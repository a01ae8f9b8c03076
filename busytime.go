// Package busytime is the public API of the busy-time scheduling library,
// a Go implementation of
//
//	Flammini, Monaco, Moscardelli, Shachnai, Shalom, Tamir, Zaks:
//	"Minimizing total busy time in parallel scheduling with application to
//	optical networks", IPDPS 2009 / Theoretical Computer Science 411 (2010).
//
// The problem: jobs are fixed time intervals, a machine may run at most g
// jobs simultaneously, machines may be opened freely, and the objective is
// to minimize the total busy time — the sum over machines of the measure of
// time each machine has at least one active job. The problem is NP-hard
// already for g = 2.
//
// # Sessions
//
// The package is organized around the Solver session: New selects an
// algorithm by registered name and owns a pool of recycled schedule arenas,
// so repeated Solve calls stop allocating schedule state once warm.
// SolveBatch and SolveStream fan Solve itself out across workers on the
// same arenas, with deterministic, input-ordered results; Online opens a
// feed-one-job-at-a-time handle for the online problem. Every entry point
// takes a context: batch runs cancel at instance boundaries and the exact
// branch-and-bound cancels mid-search.
//
//	s, err := busytime.New(busytime.WithAlgorithm("bestfit"), busytime.WithVerify(true))
//	res, err := s.Solve(ctx, instance)   // res.Cost, res.Bounds, res.Gap(), res.Schedule
//
// The paper's algorithms and their proven guarantees, by registered name:
//
//   - firstfit — §2.1, 4-approximation for general instances (ratio ∈ [3,4])
//   - properfit — §3.1, 2-approximation for proper interval instances
//   - clique — Appendix, 2-approximation when all jobs intersect
//   - boundedlength — §3.2, (2+ε)-approximation for lengths in [1, d]
//   - laminar — exact polynomial solver for laminar instances
//   - exact — branch-and-bound optimum for small instances
//   - portfolio — best of all applicable algorithms plus local search
//   - online-firstfit / online-bestfit / online-nextfit — arrival-order
//     policies for the online variant (plus baselines; see Algorithms)
//
// Sub-packages under internal/ provide the substrates (interval sweeps,
// interval graphs, the time-sharded capacity oracle, b-matching, the
// optical-network reduction of §4, a discrete-event validator, workload
// generators and the experiment harness reproducing every quantitative
// artifact of the paper).
package busytime

import (
	"fmt"

	"busytime/internal/core"
	"busytime/internal/interval"
)

// Core model types, re-exported.
type (
	// Interval is a closed interval [Start, End] on the real line.
	Interval = interval.Interval
	// Job is a scheduling job: an interval plus a capacity demand.
	Job = core.Job
	// Instance is a busy-time scheduling instance (jobs + parallelism g).
	Instance = core.Instance
	// Schedule is an assignment of jobs to machines.
	Schedule = core.Schedule
	// Bounds bundles the lower bounds of an instance.
	Bounds = core.Bounds
)

// ParseInterval returns the closed interval [start, end], rejecting NaN or
// infinite endpoints and reversed bounds with an error.
func ParseInterval(start, end float64) (Interval, error) {
	if err := interval.Check(start, end); err != nil {
		return Interval{}, fmt.Errorf("busytime: %w: [%v, %v]", err, start, end)
	}
	return Interval{Start: start, End: end}, nil
}

// BuildInstance builds an instance with parallelism g from fully specified
// jobs, validating everything the scheduling core assumes: g ≥ 1, unique
// job IDs, demands in [1, g], and well-formed intervals. The jobs slice is
// copied.
func BuildInstance(g int, jobs ...Job) (*Instance, error) {
	in := &Instance{G: g, Jobs: append([]Job(nil), jobs...)}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// UnitJobs converts raw intervals into unit-demand jobs with sequential IDs
// starting at 0 — the paper's base problem — for use with BuildInstance.
func UnitJobs(ivs ...Interval) []Job {
	jobs := make([]Job, len(ivs))
	for i, iv := range ivs {
		jobs[i] = Job{ID: i, Iv: iv, Demand: 1}
	}
	return jobs
}

// AllBounds returns the span, parallelism and fractional lower bounds of
// the instance, validating it the way Solve does: a nil or invalid instance
// is an error. The fractional bound ∫⌈N_t/g⌉dt dominates the two
// Observation 1.1 bounds and is the strongest lower bound on OPT the library
// knows.
func AllBounds(in *Instance) (Bounds, error) {
	if in == nil {
		return Bounds{}, fmt.Errorf("busytime: AllBounds of a nil instance")
	}
	if err := in.CachedValidate(); err != nil {
		return Bounds{}, err
	}
	return core.AllBounds(in), nil
}
