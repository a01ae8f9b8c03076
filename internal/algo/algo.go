// Package algo defines the common shape of busy-time scheduling algorithms
// and a registry used by the CLI tools and the benchmark harness.
//
// Every algorithm consumes an instance and produces a complete feasible
// schedule; implementations live in sub-packages (firstfit, properfit,
// cliquealgo, boundedlength, exact, baselines, demand).
package algo

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"busytime/internal/core"
)

// Func is a scheduling algorithm: it must return a complete schedule that
// passes (*core.Schedule).Verify for any valid instance it accepts.
type Func func(*core.Instance) *core.Schedule

// CtxFunc is a context-aware scratch entry point: it observes ctx at its own
// checkpoints during the run and returns context.Cause(ctx)'s error when
// cancelled mid-search, instead of a schedule.
type CtxFunc func(context.Context, *core.Instance, *core.Scratch) (*core.Schedule, error)

// CancelPoint documents where a registered algorithm observes context
// cancellation. It is registry metadata for drivers: the public Solver
// checks ctx between runs regardless (per Solve, per batch item and per
// stream shard); only CancelMidRun algorithms additionally stop inside a
// single run.
type CancelPoint int

const (
	// CancelAtBoundary marks an algorithm whose single run always completes:
	// it is polynomial and fast, so drivers observe ctx only between runs
	// (the Solver's entry check and batch fan-out).
	CancelAtBoundary CancelPoint = iota
	// CancelMidRun marks an algorithm with an unbounded-time search that
	// checkpoints ctx during the run via RunScratchCtx (the exact branch and
	// bound).
	CancelMidRun
)

// String returns the metadata label used in listings.
func (c CancelPoint) String() string {
	if c == CancelMidRun {
		return "mid-run"
	}
	return "run-boundary"
}

// Algorithm is a named scheduling algorithm with a short description.
type Algorithm struct {
	Name        string
	Description string
	Run         Func
	// RunScratch runs the algorithm drawing schedule state from the scratch
	// so batch drivers can recycle allocations across instances. Every
	// registered algorithm provides one, routed through the shared placement
	// kernel (core.Placer); the registry-wide differential suite pins each
	// RunScratch byte-identical to Run. The returned schedule is only valid
	// until the scratch's next use.
	RunScratch func(*core.Instance, *core.Scratch) *core.Schedule
	// RunScratchCtx, set exactly when Cancellation is CancelMidRun, is the
	// context-aware variant: identical output to RunScratch when ctx stays
	// live, a nil schedule and ctx's error when cancelled mid-run.
	RunScratchCtx CtxFunc
	// Cancellation records where the algorithm observes ctx; see CancelPoint.
	Cancellation CancelPoint
	// Decompose, when non-nil, declares the algorithm safe for the
	// component-decomposition layer (internal/decomp): running it on each
	// connected component of the interval graph independently and merging
	// the per-component schedules reproduces the sequential whole-instance
	// run exactly. The registry-wide differential suite pins decomposed ==
	// sequential bitwise for every algorithm that sets it.
	Decompose *Decomposer
}

// Decomposer is the decomposition contract of an algorithm: how to partition
// its processing order by component, how to solve one component against the
// parent instance, and how component-local machine indices map to global
// ones.
//
// The greedy family qualifies under the identity mapping: components are
// strictly time-disjoint, so during the sequential whole-instance run a
// machine's jobs from other components never constrain a job's feasibility
// or span delta — machine m's placements restricted to one component are
// exactly the component-local run's machine m. Algorithms with cross-job
// state that survives a component boundary (NextFit's cursor, local search's
// move passes, dynamic lookahead buffers) do not qualify and leave Decompose
// nil.
type Decomposer struct {
	// Order returns the algorithm's global processing order as job indices
	// (a cached instance order; the slice is not modified). nil means
	// position order 0..n-1.
	Order func(in *core.Instance) []int32
	// RunComponent solves one component against the parent instance: order
	// is the component's jobs as a subsequence of the global Order, sc is a
	// worker-private arena, and out (aligned with order) receives each job's
	// component-local machine. Machines must be opened densely from 0.
	RunComponent func(ctx context.Context, in *core.Instance, order []int32, sc *core.Scratch, out []int32) error
	// Stacked selects the merge mapping: false merges under the identity
	// (component-local machine j → global machine j, the greedy family);
	// true stacks components onto disjoint machine ranges in component
	// order (the exact solver, which opens fresh machines per component).
	Stacked bool
	// Stitch declares that RunComponent materializes its result as the live
	// schedule on the arena it was handed — one kernel placement per order
	// entry, in order (the ComponentLowestFit/ComponentBestFit family). The
	// decomposition layer then merges by adopting each component's machine
	// records and span pieces wholesale (core.Assembly.Graft/PutDelta)
	// instead of replaying every placement's span merge, still bitwise
	// identical to sequential. Decomposers that compute assignments out of
	// band (the exact search builds a sub-instance) leave it false and get
	// the ordinary Put replay.
	Stitch bool
	// Shard, when not ShardNone, additionally declares the algorithm safe
	// for opt-in time-axis sharding: the dominant (or only) component's time
	// axis is cut at low-crossing boundaries, the shards run through
	// RunComponent independently (its contract never assumed connectivity),
	// and the named rule places the withheld crossing jobs into the live
	// shard schedules during the sequential reconciliation pass. Sharded
	// results are valid but not bitwise-identical to sequential, so the
	// layer only takes this path when the caller opted in. Requires Stitch.
	Shard ShardRule
}

// ShardRule names the reconciliation rule of the time-sharding layer: how
// withheld crossing jobs are placed into the merged shard schedules.
type ShardRule int

const (
	// ShardNone marks an algorithm that does not support time-axis sharding.
	ShardNone ShardRule = iota
	// ShardLowestFit reconciles crossing jobs onto the lowest machine that
	// fits, scanning shards in time order (the FirstFit family's rule).
	ShardLowestFit
	// ShardBestFit reconciles crossing jobs onto the feasible machine with
	// the smallest busy-time increase across all shards, ties to the
	// earliest shard and lowest machine (the BestFit family's rule).
	ShardBestFit
)

// ComponentLowestFit is the shared RunComponent of the LowestFit-driven
// family (firstfit, firstfit-start, randomfit, online-firstfit): the
// component's jobs through the kernel LowestFit on a schedule drawn from sc.
// out (aligned with order) receives each job's component-local machine.
func ComponentLowestFit(_ context.Context, in *core.Instance, order []int32, sc *core.Scratch, out []int32) error {
	s := sc.NewSchedule(in)
	k := s.Placer()
	for i, j := range order {
		out[i] = int32(k.LowestFit(int(j)))
	}
	return nil
}

// ComponentBestFit is the shared RunComponent of the BestFit-driven family
// (bestfit, online-bestfit): the kernel's pruned span-delta argmin over the
// component's jobs.
func ComponentBestFit(_ context.Context, in *core.Instance, order []int32, sc *core.Scratch, out []int32) error {
	s := sc.NewSchedule(in)
	k := s.Placer()
	for i, j := range order {
		out[i] = int32(k.BestFit(int(j)))
	}
	return nil
}

var registry = map[string]Algorithm{}

// Register adds an algorithm to the global registry. It panics on duplicate
// names; registration happens in sub-package init functions.
func Register(a Algorithm) {
	if _, dup := registry[a.Name]; dup {
		panic(fmt.Sprintf("algo: duplicate registration of %q", a.Name))
	}
	if (a.Cancellation == CancelMidRun) != (a.RunScratchCtx != nil) {
		panic(fmt.Sprintf("algo: %q declares Cancellation=%v but RunScratchCtx=%v",
			a.Name, a.Cancellation, a.RunScratchCtx != nil))
	}
	registry[a.Name] = a
}

// Lookup returns the registered algorithm with the given name.
func Lookup(name string) (Algorithm, bool) {
	a, ok := registry[name]
	return a, ok
}

// All returns every registered algorithm sorted by name.
func All() []Algorithm {
	out := make([]Algorithm, 0, len(registry))
	for _, a := range registry {
		out = append(out, a)
	}
	slices.SortFunc(out, func(a, b Algorithm) int { return strings.Compare(a.Name, b.Name) })
	return out
}
