// Package exact computes optimal busy-time schedules by branch and bound.
// It is the yardstick the benchmark harness measures approximation ratios
// against: the problem is NP-hard already for g = 2 (Winkler & Zhang), so
// exact solving is reserved for small instances.
//
// The search enumerates set partitions in restricted-growth form (a job may
// open only the next new machine), processes jobs in start-time order so
// capacity and cost updates are O(1) amortized, warm-starts from FirstFit,
// and prunes with an admissible bound: accrued cost plus the fractional
// lower bound of the remaining jobs restricted to time not yet covered by
// any open machine.
package exact

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"busytime/internal/algo"
	"busytime/internal/core"
	"busytime/internal/interval"
)

func init() { algo.Register(New(DefaultMaxJobs)) }

// New returns the branch and bound as a registry entry with the given
// per-component job limit: Run is SolveWith at that limit, and Decompose
// declares the search safe for the decomposition layer. A chunk is solved
// by solveOrder, the function SolveWith runs on the whole instance, so the
// layer merely runs the same per-component searches concurrently;
// solveOrder finds the components by re-sorting its order by start, so the
// component-major order a chunk receives yields the same components,
// checked in the same start order. Stacked merging offsets each chunk's
// machines by the counts of the chunks before it, in start order — exactly
// solveOrder's own stacking — and the position-order replay (Order nil)
// reproduces SolveWith's placement order bit for bit. The registered
// "exact" row is New(DefaultMaxJobs).
func New(maxJobs int) algo.Algorithm {
	return algo.Algorithm{
		Name:        "exact",
		Description: "optimal schedule by branch and bound (small instances only)",
		Run: func(ctx context.Context, in *core.Instance, sc *core.Scratch) (*core.Schedule, error) {
			return SolveWith(ctx, in, maxJobs, sc)
		},
		Cancellation: algo.CancelMidRun,
		Decompose: &algo.Decomposer{
			Stacked: true,
			RunComponent: func(ctx context.Context, in *core.Instance, order []int32, sc *core.Scratch) error {
				_, err := solveOrder(ctx, in, order, maxJobs, sc)
				return err
			},
		},
	}
}

// DefaultMaxJobs is the largest component size Solve accepts by default.
const DefaultMaxJobs = 18

// Solve returns an optimal schedule. It decomposes the instance into
// connected components (optimal per component is optimal overall) and errors
// if any component exceeds DefaultMaxJobs jobs.
func Solve(in *core.Instance) (*core.Schedule, error) {
	return SolveWith(context.Background(), in, DefaultMaxJobs, nil)
}

// SolveMax is Solve with an explicit per-component job limit.
func SolveMax(in *core.Instance, maxJobs int) (*core.Schedule, error) {
	return SolveWith(context.Background(), in, maxJobs, nil)
}

// SolveWith is the general entry point: branch and bound with an explicit
// per-component job limit, cooperative ctx checkpoints inside the search
// (every few thousand nodes and between components — the search is the
// library's only per-run unbounded-time path), and the final schedule drawn
// from sc when non-nil. Cancelling ctx makes the search unwind promptly and
// SolveWith return ctx's error.
func SolveWith(ctx context.Context, in *core.Instance, maxJobs int, sc *core.Scratch) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if maxJobs < 1 {
		return nil, fmt.Errorf("exact: component job limit %d, want ≥ 1", maxJobs)
	}
	order := make([]int32, in.N())
	for i := range order {
		order[i] = int32(i)
	}
	s, err := solveOrder(ctx, in, order, maxJobs, sc)
	if err != nil {
		return nil, err
	}
	if err := s.Verify(); err != nil {
		return nil, fmt.Errorf("exact: produced infeasible schedule: %w", err)
	}
	return s, nil
}

// solveOrder solves every connected component among the jobs of order
// optimally (optimal per component is optimal overall), stacks their
// machines in start order — each component's machines follow those of every
// earlier-starting one — and places the jobs, in order, on a schedule of in
// drawn from sc (fresh memory when sc is nil). Components are checked
// against maxJobs and ctx in start order, each before its search, so the
// earliest failing component decides the error. One searcher serves every
// component, so its buffers and machine records, and the arena its FirstFit
// warm starts run on, grow once per call rather than once per component.
func solveOrder(ctx context.Context, in *core.Instance, order []int32, maxJobs int, sc *core.Scratch) (*core.Schedule, error) {
	job := func(p int) core.Job { return in.Jobs[order[p]] }
	byStart := make([]int, len(order))
	for p := range byStart {
		byStart[p] = p
	}
	slices.SortFunc(byStart, func(a, b int) int { return cmp.Compare(job(a).Iv.Start, job(b).Iv.Start) })
	machine := make([]int, len(order))
	se := &searcher{g: in.G, ctx: ctx, warm: new(core.Scratch)}
	base := 0
	for lo := 0; lo < len(byStart); {
		hi, reach := lo+1, job(byStart[lo]).Iv.End
		for ; hi < len(byStart) && job(byStart[hi]).Iv.Start <= reach; hi++ {
			reach = max(reach, job(byStart[hi]).Iv.End)
		}
		comp := byStart[lo:hi]
		lo = hi
		if len(comp) > maxJobs {
			return nil, fmt.Errorf("exact: component with %d jobs exceeds limit %d", len(comp), maxJobs)
		}
		if err := context.Cause(ctx); err != nil {
			return nil, err
		}
		jobs := make([]core.Job, len(comp))
		for i, p := range comp {
			jobs[i] = job(p)
		}
		assign, err := se.solveComponent(&core.Instance{Name: in.Name + "/comp", G: in.G, Jobs: jobs})
		if err != nil {
			return nil, err
		}
		used := 0
		for i, m := range assign {
			machine[comp[i]] = base + m
			used = max(used, m+1)
		}
		base += used
	}
	s := core.NewScheduleFrom(in, sc)
	for range base {
		s.OpenMachine()
	}
	for p, j := range order {
		s.Assign(int(j), machine[p])
	}
	return s, nil
}

// Cost returns only the optimal cost. Convenience for ratio computations.
func Cost(in *core.Instance) (float64, error) {
	s, err := Solve(in)
	if err != nil {
		return 0, err
	}
	return s.Cost(), nil
}

type machine struct {
	pieces []interval.Interval // sorted, disjoint busy pieces
	load   []jobRef            // assigned jobs (for capacity checks)
}

type jobRef struct {
	end    float64
	demand int
}

// searcher is the branch and bound's state, reused by every component of
// one solveOrder call.
type searcher struct {
	// jobs holds the component's jobs in start order.
	jobs []core.Job
	g    int
	// best is the lowest cost found, FirstFit's to begin with, and bestFit
	// the assignment that reached it once improved is set; cur is the
	// assignment being explored, in start order.
	best     float64
	bestFit  []int
	improved bool
	cur      []int
	// assign is solveComponent's result buffer, in component job order.
	assign []int
	// warm is the arena of the FirstFit warm starts.
	warm *core.Scratch
	mach []*machine
	// opened[m] is the record the search last opened as machine m: machines
	// open and close in stack order, so it is free whenever m opens again.
	opened []*machine
	// covered and evs are remainingBound's buffers: the union of the open
	// machines' busy pieces and the events of the pieces it leaves uncovered.
	covered interval.Set
	evs     []event
	cost    float64
	// ctx cancellation: the search polls ctx.Done() every cancelStride nodes
	// (a select per node would dominate the O(1) capacity updates) and sets
	// stopped, which unwinds the recursion without exploring further nodes.
	ctx     context.Context
	tick    uint
	stopped bool
}

// cancelStride is how many search nodes pass between ctx polls: frequent
// enough that cancellation lands in well under a millisecond, sparse enough
// to stay invisible next to the per-node bound computation.
const cancelStride = 1024

// solveComponent finds an optimal assignment of one connected component and
// returns each job's machine in component job order, in a buffer the next
// call reuses; it returns ctx's error when the search was cancelled mid-run.
func (se *searcher) solveComponent(comp *core.Instance) ([]int, error) {
	n := comp.N()
	// Search the jobs by (start, end, ID); perm maps back to job order.
	perm := comp.StartOrder()
	se.jobs = se.jobs[:0]
	for _, p := range perm {
		se.jobs = append(se.jobs, comp.Jobs[p])
	}
	// Warm start from FirstFit, on the searcher's own arena: the caller's
	// may hold a span log armed for the schedule solveOrder draws next.
	ff := algo.RunGreedy(comp, se.warm, comp.LengthOrder(), core.LowestFit)
	// The search's cost += d … cost -= d leaves rounding behind, so each
	// component starts again from exactly 0.
	se.best, se.improved, se.cost = ff.Cost()+1e-9, false, 0
	se.cur = slices.Grow(se.cur[:0], n)[:n]
	se.search(0)
	if se.stopped {
		return nil, context.Cause(se.ctx)
	}
	se.assign = slices.Grow(se.assign[:0], n)[:n]
	for i, p := range perm {
		if se.improved {
			se.assign[p] = se.bestFit[i]
		} else {
			// FirstFit was already optimal.
			se.assign[p] = ff.MachineOf(int(p))
		}
	}
	return se.assign, nil
}

func (se *searcher) search(i int) {
	if se.tick++; se.tick%cancelStride == 0 {
		select {
		case <-se.ctx.Done():
			se.stopped = true
		default:
		}
	}
	if se.stopped {
		return
	}
	if i == len(se.jobs) {
		if se.cost < se.best {
			se.best, se.improved = se.cost, true
			se.bestFit = append(se.bestFit[:0], se.cur...)
		}
		return
	}
	if se.cost >= se.best {
		return
	}
	if se.cost+se.remainingBound(i) >= se.best {
		return
	}
	job := se.jobs[i]
	// Existing machines in index order.
	for m, mc := range se.mach {
		if !mc.fits(job, se.g) {
			continue
		}
		undo := mc.add(job)
		se.cost += undo.delta
		se.cur[i] = m
		se.search(i + 1)
		se.cost -= undo.delta
		mc.undo(undo)
	}
	// Open the next new machine (restricted growth: only one new branch).
	if len(se.mach) == len(se.opened) {
		se.opened = append(se.opened, new(machine))
	}
	nm := se.opened[len(se.mach)]
	nm.pieces, nm.load = nm.pieces[:0], nm.load[:0]
	undo := nm.add(job)
	se.mach = append(se.mach, nm)
	se.cost += undo.delta
	se.cur[i] = len(se.mach) - 1
	se.search(i + 1)
	se.cost -= undo.delta
	se.mach = se.mach[:len(se.mach)-1]
}

// fits reports whether job can join the machine without exceeding capacity.
// All previously assigned jobs start no later than job.Iv.Start, so the
// demand-weighted depth of the union within the job's window is maximized at
// its start: it suffices to sum the demands of assigned jobs still active
// there (closed semantics: end ≥ start counts).
func (mc *machine) fits(job core.Job, g int) bool {
	used := 0
	for _, r := range mc.load {
		if r.end >= job.Iv.Start {
			used += r.demand
		}
	}
	return used+job.Demand <= g
}

// undoRec captures the state needed to revert one add.
type undoRec struct {
	delta    float64
	appended bool    // a new piece was appended
	oldEnd   float64 // previous end of the last piece (when merged)
}

// add appends the job (jobs arrive in non-decreasing start order) and
// returns the undo record. Busy pieces stay sorted and disjoint.
func (mc *machine) add(job core.Job) undoRec {
	mc.load = append(mc.load, jobRef{end: job.Iv.End, demand: job.Demand})
	s, c := job.Iv.Start, job.Iv.End
	if n := len(mc.pieces); n > 0 && s <= mc.pieces[n-1].End {
		last := &mc.pieces[n-1]
		old := last.End
		if c > last.End {
			last.End = c
		}
		return undoRec{delta: last.End - old, appended: false, oldEnd: old}
	}
	mc.pieces = append(mc.pieces, interval.Interval{Start: s, End: c})
	return undoRec{delta: c - s, appended: true}
}

func (mc *machine) undo(u undoRec) {
	mc.load = mc.load[:len(mc.load)-1]
	if u.appended {
		mc.pieces = mc.pieces[:len(mc.pieces)-1]
		return
	}
	mc.pieces[len(mc.pieces)-1].End = u.oldEnd
}

// remainingBound is an admissible lower bound on the extra cost the
// unassigned jobs i.. will force: over time not covered by any open
// machine's busy pieces, every instant with demand-weighted remaining depth
// d costs at least ⌈d/g⌉ additional machine-time (an open machine extending
// into that region pays for it beyond the accrued cost, as does a new one).
// It builds the covered union and the events in the searcher's buffers.
func (se *searcher) remainingBound(i int) float64 {
	if i >= len(se.jobs) {
		return 0
	}
	covered := se.covered[:0]
	for _, mc := range se.mach {
		covered = append(covered, mc.pieces...)
	}
	covered = covered.UnionInPlace()
	evs := se.evs[:0]
	for _, job := range se.jobs[i:] {
		evs = subtract(evs, job.Iv, job.Demand, covered)
	}
	se.covered, se.evs = covered, evs
	if len(evs) == 0 {
		return 0
	}
	slices.SortFunc(evs, func(a, b event) int {
		if a.t != b.t {
			if a.t < b.t {
				return -1
			}
			return 1
		}
		return a.delta - b.delta
	})
	g := float64(se.g)
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

// event is a remaining job's demand entering (delta > 0) or leaving an
// uncovered piece at time t.
type event struct {
	t     float64
	delta int
}

// subtract appends to evs the start and end events, of the given demand, of
// the pieces of iv that the sorted disjoint set covered leaves uncovered.
func subtract(evs []event, iv interval.Interval, demand int, covered interval.Set) []event {
	cur := iv
	for _, c := range covered {
		if c.End <= cur.Start {
			continue
		}
		if c.Start >= cur.End {
			break
		}
		if c.Start > cur.Start {
			evs = append(evs, event{cur.Start, demand}, event{c.Start, -demand})
		}
		if c.End >= cur.End {
			return evs
		}
		cur.Start = c.End
	}
	if cur.End > cur.Start {
		evs = append(evs, event{cur.Start, demand}, event{cur.End, -demand})
	}
	return evs
}
