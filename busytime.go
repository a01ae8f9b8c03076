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
// interval graphs, interval trees, b-matching, the optical-network reduction
// of §4, a discrete-event validator, workload generators and the experiment
// harness reproducing every quantitative artifact of the paper).
package busytime

import (
	"context"
	"fmt"
	"sync"

	"busytime/internal/algo/portfolio"
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
// infinite endpoints and reversed bounds with an error. It is the
// validating counterpart of the legacy NewInterval shim.
func ParseInterval(start, end float64) (Interval, error) {
	if err := interval.Check(start, end); err != nil {
		return Interval{}, fmt.Errorf("busytime: %w: [%v, %v]", err, start, end)
	}
	return Interval{Start: start, End: end}, nil
}

// BuildInstance builds an instance with parallelism g from fully specified
// jobs, validating everything the scheduling core assumes: g ≥ 1, unique
// job IDs, demands in [1, g], and well-formed intervals. It is the
// validating counterpart of the legacy NewInstance shim. The jobs slice is
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

// NewInterval returns the closed interval [start, end]; it panics when end <
// start.
//
// It is the legacy panicking shim kept for source compatibility; new code
// should use ParseInterval and handle the error.
func NewInterval(start, end float64) Interval { return interval.New(start, end) }

// NewInstance builds an instance with parallelism g from intervals,
// assigning sequential job IDs and unit demands. It performs no validation
// (g ≤ 0 or reversed intervals surface later, possibly as panics).
//
// It is the legacy shim kept for source compatibility; new code should use
// BuildInstance (with UnitJobs for the unit-demand case) and handle the
// error.
func NewInstance(g int, ivs ...Interval) *Instance { return core.NewInstance(g, ivs...) }

// defaultSolvers caches one fresh-schedule Solver per algorithm name for
// the deprecated free functions, which predate sessions and must keep
// returning schedules that never share memory.
var defaultSolvers sync.Map

func defaultSolve(name string, in *Instance, extra ...Option) (Result, error) {
	if len(extra) > 0 {
		// Parameterized call (e.g. BoundedLength's d): a one-shot session.
		s, err := New(append([]Option{WithAlgorithm(name), WithFreshSchedules()}, extra...)...)
		if err != nil {
			return Result{}, err
		}
		return s.Solve(context.Background(), in)
	}
	v, ok := defaultSolvers.Load(name)
	if !ok {
		s, err := New(WithAlgorithm(name), WithFreshSchedules())
		if err != nil {
			return Result{}, err
		}
		v, _ = defaultSolvers.LoadOrStore(name, s)
	}
	return v.(*Solver).Solve(context.Background(), in)
}

// mustSolve backs the legacy wrappers whose signatures have no error return:
// errors (including invalid instances) panic, which is the documented shim
// behavior.
func mustSolve(name string, in *Instance) *Schedule {
	res, err := defaultSolve(name, in)
	if err != nil {
		panic(err)
	}
	return res.Schedule
}

// FirstFit runs the paper's FirstFit (§2.1): jobs sorted by non-increasing
// length, each placed on the first machine with capacity throughout its
// interval. Guarantee: cost ≤ 4·OPT on every instance (Theorem 2.1).
//
// Deprecated: use New(WithAlgorithm("firstfit")) and Solve; this shim runs a
// package-default Solver and panics on invalid instances.
func FirstFit(in *Instance) *Schedule { return mustSolve("firstfit", in) }

// ProperGreedy runs the §3.1 greedy (NextFit by start time). Guarantee:
// cost ≤ OPT + span ≤ 2·OPT on proper instances (Theorem 3.1); on arbitrary
// instances the schedule is feasible but unguaranteed.
//
// Deprecated: use New(WithAlgorithm("properfit")) and Solve; this shim runs
// a package-default Solver and panics on invalid instances.
func ProperGreedy(in *Instance) *Schedule { return mustSolve("properfit", in) }

// CliqueSchedule runs the Appendix algorithm for instances whose intervals
// all share a common point. Guarantee: cost ≤ 2·OPT (Theorem A.1). It
// errors when the instance is not a clique.
//
// Deprecated: use New(WithAlgorithm("clique")) and Solve.
func CliqueSchedule(in *Instance) (*Schedule, error) {
	res, err := defaultSolve("clique", in)
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

// BoundedLength runs the §3.2 algorithm: segment the time axis at
// granularity d (the maximum job length when d = 0) and optimize per
// segment; the segmentation costs at most a factor 2 (Lemma 3.3).
//
// Deprecated: use New(WithAlgorithm("boundedlength"), WithLengthBound(d))
// and Solve.
func BoundedLength(in *Instance, d float64) (*Schedule, error) {
	var extra []Option
	if d != 0 {
		extra = append(extra, WithLengthBound(d))
	}
	res, err := defaultSolve("boundedlength", in, extra...)
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

// Exact computes an optimal schedule by branch and bound. It errors when a
// connected component exceeds the tractable size.
//
// Deprecated: use New(WithAlgorithm("exact")) and Solve, which adds context
// cancellation and WithExactLimit.
func Exact(in *Instance) (*Schedule, error) {
	res, err := defaultSolve("exact", in)
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

// LaminarSchedule solves laminar instances (any two jobs nested or strictly
// disjoint) exactly in polynomial time by level grouping; the result's cost
// equals the fractional lower bound. It errors on non-laminar instances.
//
// Deprecated: use New(WithAlgorithm("laminar")) and Solve.
func LaminarSchedule(in *Instance) (*Schedule, error) {
	res, err := defaultSolve("laminar", in)
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

// Portfolio runs every applicable algorithm plus local search and returns
// the cheapest feasible schedule with the winning algorithm's name.
//
// Deprecated: use New(WithAlgorithm("portfolio")) and Solve. The session
// Result reports "portfolio" as the algorithm; this shim additionally
// surfaces the inner winner's name, which is why it calls the portfolio
// directly rather than through a session.
func Portfolio(in *Instance) (*Schedule, string, error) {
	if in == nil {
		return nil, "", fmt.Errorf("busytime: Portfolio of a nil instance")
	}
	if err := in.Validate(); err != nil {
		return nil, "", err
	}
	return portfolio.Schedule(in)
}

// LowerBound returns the strongest lower bound on OPT the library knows:
// the fractional bound ∫⌈N_t/g⌉dt, which dominates both Observation 1.1
// bounds.
func LowerBound(in *Instance) float64 { return core.BestBound(in) }

// AllBounds returns the span, parallelism and fractional lower bounds.
func AllBounds(in *Instance) Bounds { return core.AllBounds(in) }
