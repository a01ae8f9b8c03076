// Package algo defines the common shape of busy-time scheduling algorithms
// and a registry used by the CLI tools and the benchmark harness.
//
// Every algorithm consumes an instance and produces a complete feasible
// schedule; implementations live in sub-packages (firstfit, properfit,
// cliquealgo, boundedlength, exact, baselines, demand, online). The greedy
// rows among them — one core.Rule driven in one job order — are declared as
// GreedyRow entries and share one driver, RunGreedy.
package algo

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"busytime/internal/core"
)

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
	// checkpoints ctx during the run and returns ctx's error when cancelled
	// (the exact branch and bound).
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
	// Run schedules the instance and returns a complete schedule that
	// passes (*core.Schedule).Verify, or an error when the instance is
	// outside the algorithm's class (not a clique, a component above the
	// size limit) or ctx was cancelled mid-run. Schedule state is drawn
	// from sc, which is never nil, recycling its allocations across runs,
	// and the returned schedule is only valid until sc's next use. The
	// registry-wide differential suite pins the schedules a cold and a warm
	// Scratch give byte-identical.
	Run func(ctx context.Context, in *core.Instance, sc *core.Scratch) (*core.Schedule, error)
	// Cancellation records where the algorithm observes ctx; see CancelPoint.
	Cancellation CancelPoint
	// Decompose, when non-nil, declares the algorithm safe for the
	// component-decomposition layer (internal/decomp): running it on chunks
	// of whole connected components of the interval graph independently and
	// merging the per-chunk schedules reproduces the sequential
	// whole-instance run exactly. The registry-wide differential suite pins
	// decomposed == sequential bitwise for every algorithm that sets it.
	Decompose *Decomposer
}

// Decomposer is the decomposition contract of an algorithm: how to partition
// its processing order by component, how to solve a run of whole components
// against the parent instance, and how the solved machines map to global
// ones.
//
// The greedy family qualifies under the identity mapping: components are
// strictly time-disjoint, so during the sequential whole-instance run a
// machine's jobs from other components never constrain a job's feasibility
// or span delta — a placement's machine and delta depend only on the
// earlier placements of its own component, so any run over whole
// components that keeps each component's order reproduces them. Algorithms
// with cross-job state that survives a component boundary (NextFit's
// cursor, local search's move passes, dynamic lookahead buffers) do not
// qualify and leave Decompose nil.
type Decomposer struct {
	// Order returns the algorithm's global processing order as job indices
	// (a cached instance order; the slice is not modified). nil means
	// position order 0..n-1.
	Order func(in *core.Instance) []int32
	// RunComponent solves a chunk — one or more whole components, or a time
	// shard — against the parent instance on sc, a worker-private arena. A
	// chunk's order is component-major: its components one after another in
	// start order, each holding its jobs in the global Order. A shard's
	// order is its jobs as a subsequence of the global Order. RunComponent
	// must leave its result as the live schedule of in drawn from sc, with
	// one kernel placement per order entry, in order, on machines opened
	// densely from 0. The layer checks the placement count against the
	// arena's span log and reads every job's machine off the live schedule.
	RunComponent func(ctx context.Context, in *core.Instance, order []int32, sc *core.Scratch) error
	// Stacked selects the merge mapping: false merges under the identity
	// (chunk machine j → global machine j, the greedy family); true stacks
	// chunks onto disjoint machine ranges in start order (the exact solver,
	// which opens fresh machines per component).
	Stacked bool
	// Shards additionally declares the algorithm safe for opt-in time-axis
	// sharding: the dominant (or only) component's time axis is cut at
	// low-crossing boundaries, every job joins the shard whose time range
	// holds its start, and each shard runs through RunComponent on its own
	// (the contract never assumed connectivity) onto machines no other
	// shard uses. Sharded results are valid but not bitwise-identical to
	// sequential, so the layer only takes this path when the caller opted
	// in.
	Shards bool
}

// GreedyRow is a greedy registry row: one kernel placement rule driven in
// one job order. Every greedy algorithm the paper analyses has this shape —
// FirstFit is LowestFit in length order, the §3.1 proper greedy NextFit in
// start order, and the online model a rule in arrival order — so the rows
// differ only in these four fields.
type GreedyRow struct {
	Name        string
	Description string
	// Order returns the processing order as job indices; the slice is not
	// modified (typically a cached instance order such as
	// (*core.Instance).LengthOrder).
	Order func(*core.Instance) []int32
	Rule  core.Rule
}

// RegisterGreedy registers greedy rows: Run goes through RunGreedy, and
// Decompose is GreedyDecomposer's contract for the row.
func RegisterGreedy(rows ...GreedyRow) {
	for _, r := range rows {
		Register(Algorithm{
			Name:        r.Name,
			Description: r.Description,
			Run: func(_ context.Context, in *core.Instance, sc *core.Scratch) (*core.Schedule, error) {
				return RunGreedy(in, sc, r.Order(in), r.Rule), nil
			},
			Decompose: GreedyDecomposer(r.Order, r.Rule),
		})
	}
}

// RunGreedy places the jobs of order, in sequence, by rule on an empty
// schedule drawn from sc and returns it. It is the one greedy placement loop
// of the library: the registered rows, their chunk runs, the online
// lookahead replay and the pool's offline replay all drive it.
func RunGreedy(in *core.Instance, sc *core.Scratch, order []int32, rule core.Rule) *core.Schedule {
	s := sc.NewSchedule(in)
	s.ApplyOrder(rule, order)
	return s
}

// GreedyDecomposer derives a greedy row's decomposition contract: each chunk
// or time shard runs through RunGreedy on the arena it is handed, and chunks
// merge under the identity mapping. A chunk receives its components one
// after another, each in the row's order, so consecutive placements stay
// inside one component's time window. A machine's jobs from other
// (time-disjoint) components never change a LowestFit probe or a BestFit
// argmin — such a machine's delta is the full job length, the maximum, and
// it loses every tie to lower indices — so each placement depends only on
// the earlier ones of its component, and the merged run equals the
// sequential one exactly. NextFit's cursor survives component boundaries,
// so a NextFit row does not decompose and gets nil.
func GreedyDecomposer(order func(*core.Instance) []int32, rule core.Rule) *Decomposer {
	if rule == core.NextFit {
		return nil
	}
	return &Decomposer{
		Order: order,
		RunComponent: func(_ context.Context, in *core.Instance, order []int32, sc *core.Scratch) error {
			RunGreedy(in, sc, order, rule)
			return nil
		},
		Shards: true,
	}
}

var registry = map[string]Algorithm{}

// Register adds an algorithm to the global registry. It panics on duplicate
// names; registration happens in sub-package init functions.
func Register(a Algorithm) {
	if _, dup := registry[a.Name]; dup {
		panic(fmt.Sprintf("algo: duplicate registration of %q", a.Name))
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
