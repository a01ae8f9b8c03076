// Package boundedlength implements the Bounded_Length algorithm (§3.2 of
// the paper) for instances whose job lengths lie in [1, d].
//
// The algorithm has two layers:
//
//  1. Segmentation (step 1 / Lemma 3.3): jobs are bucketed by start time
//     into segments of width d; forbidding machines to mix segments costs at
//     most a factor 2 in total busy time.
//  2. Per-segment optimization (step 2): the paper "guesses" the machine
//     busy-interval vector and the partition of the segment's jobs into
//     independent sets, then assigns ISs to machines with a maximum
//     b-matching. Full enumeration is polynomial but astronomically large,
//     so this implementation solves each segment exactly (branch and bound)
//     when it is small and falls back to FirstFit otherwise — both within
//     the paper's per-segment (1+ε) budget on the workloads we evaluate.
//     The b-matching machinery itself (steps 2(d)–(e)) is implemented in
//     MatchISsToMachines and exercised via ScheduleFromWitness, which plays
//     the "correct guess" role of the analysis.
package boundedlength

import (
	"context"
	"fmt"
	"math"
	"slices"

	"busytime/internal/algo"
	"busytime/internal/algo/exact"
	"busytime/internal/algo/firstfit"
	"busytime/internal/bmatch"
	"busytime/internal/core"
	"busytime/internal/interval"
)

func init() { algo.Register(New(0)) }

// New returns Bounded_Length as a registry entry with segment length d:
// Run is Schedule with Options{D: d}, so 0 uses the maximum job length.
// The registered "boundedlength" row is New(0).
func New(d float64) algo.Algorithm {
	return algo.Algorithm{
		Name:        "boundedlength",
		Description: "segment by d then solve per segment (§3.2, 2+ε approximation)",
		Run: func(_ context.Context, in *core.Instance, sc *core.Scratch) (*core.Schedule, error) {
			return Schedule(in, Options{D: d}, sc)
		},
	}
}

// Options configures the Bounded_Length run.
type Options struct {
	// D is the length bound; 0 means "use the maximum job length".
	D float64
	// ExactLimit is the largest segment solved exactly (default 12 jobs).
	ExactLimit int
}

func (o *Options) fill(in *core.Instance) error {
	if o.D == 0 {
		for _, j := range in.Jobs {
			if j.Len() > o.D {
				o.D = j.Len()
			}
		}
		if o.D == 0 {
			o.D = 1
		}
	}
	for _, j := range in.Jobs {
		if j.Len() > o.D+1e-9 {
			return fmt.Errorf("boundedlength: job %d length %v exceeds d = %v", j.ID, j.Len(), o.D)
		}
	}
	if o.ExactLimit == 0 {
		o.ExactLimit = 12
	}
	return nil
}

// Segments buckets job indices by segment: job j belongs to segment r ≥ 0
// when s_j ∈ [d·r, d·(r+1)). Only non-empty segments are returned, in order;
// the second result maps each returned bucket to its segment number.
func Segments(in *core.Instance, d float64) (buckets [][]int, segnum []int) {
	byseg := map[int][]int{}
	for j, job := range in.Jobs {
		r := int(math.Floor(job.Iv.Start / d))
		byseg[r] = append(byseg[r], j)
	}
	for r := range byseg {
		segnum = append(segnum, r)
	}
	slices.Sort(segnum)
	for _, r := range segnum {
		buckets = append(buckets, byseg[r])
	}
	return buckets, segnum
}

// Schedule runs the Bounded_Length algorithm and returns a complete
// feasible schedule that never mixes segments on one machine. The returned
// schedule is drawn from sc and is only valid until sc's next use;
// per-segment sub-solves build their own transient state.
func Schedule(in *core.Instance, opts Options, sc *core.Scratch) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := opts.fill(in); err != nil {
		return nil, err
	}
	s := sc.NewSchedule(in)
	buckets, _ := Segments(in, opts.D)
	for _, bucket := range buckets {
		sub := subInstance(in, bucket)
		var solved *core.Schedule
		if fits(sub, opts.ExactLimit) {
			sx, err := exact.SolveMax(sub, opts.ExactLimit)
			if err != nil {
				return nil, err
			}
			solved = sx
		} else {
			solved = firstfit.Schedule(sub)
		}
		graft(s, bucket, solved)
	}
	if err := s.Verify(); err != nil {
		return nil, fmt.Errorf("boundedlength: infeasible result: %w", err)
	}
	return s, nil
}

// fits reports whether every connected component of sub is within limit.
func fits(sub *core.Instance, limit int) bool {
	for _, comp := range sub.Components() {
		if comp.N() > limit {
			return false
		}
	}
	return true
}

// subInstance builds an instance from the selected job indices; position i
// of the sub-instance corresponds to bucket[i].
func subInstance(in *core.Instance, bucket []int) *core.Instance {
	jobs := make([]core.Job, len(bucket))
	for i, j := range bucket {
		jobs[i] = in.Jobs[j]
	}
	return &core.Instance{Name: in.Name + "/seg", G: in.G, Jobs: jobs}
}

// graft copies a sub-instance schedule into s, opening fresh machines.
func graft(s *core.Schedule, bucket []int, solved *core.Schedule) {
	remap := make([]int, solved.NumMachines())
	for m := range remap {
		remap[m] = s.OpenMachine()
	}
	for i, j := range bucket {
		s.Assign(j, remap[solved.MachineOf(i)])
	}
}

// MachineSpec is a "guessed" machine of step 2(b): a busy window within one
// segment; the machine may host up to g independent sets.
type MachineSpec struct {
	Window interval.Interval
}

// MatchISsToMachines performs steps 2(d)–(e): build the bipartite graph
// between machines and independent sets (IS h is connectable to machine i
// when the IS fits entirely inside the machine's window), give each machine
// capacity g and each IS capacity 1, and solve maximum b-matching. It
// returns, for each IS, the machine it is assigned to, and ok = false when
// no perfect matching exists (a wrong guess, in the paper's terms).
//
// iss lists job indices of the enclosing instance; each must be an
// independent set (pairwise non-overlapping jobs), which callers obtain from
// an interval-graph coloring.
func MatchISsToMachines(in *core.Instance, machines []MachineSpec, iss [][]int) (assign []int, ok bool, err error) {
	g := bmatch.NewGraph(len(machines), len(iss))
	for h, is := range iss {
		var set interval.Set
		for _, j := range is {
			set = append(set, in.Jobs[j].Iv)
		}
		if set.MaxDepth() > 1 {
			return nil, false, fmt.Errorf("boundedlength: IS %d is not independent", h)
		}
		hull, okHull := set.Hull()
		if !okHull {
			continue // empty IS matches nothing and nothing is required
		}
		for i, mc := range machines {
			if mc.Window.ContainsInterval(hull) {
				g.AddEdge(i, h)
			}
		}
	}
	bu := make([]int, len(machines))
	for i := range bu {
		bu[i] = in.G
	}
	perfect, matched, err := g.Perfect(bu, nil)
	if err != nil {
		return nil, false, err
	}
	if !perfect {
		return nil, false, nil
	}
	assign = make([]int, len(iss))
	for i := range assign {
		assign[i] = -1
	}
	for _, e := range matched {
		assign[e[1]] = e[0]
	}
	return assign, true, nil
}

// ScheduleFromWitness replays steps 2(b)–(e) with the "guess" taken from a
// feasible witness schedule: the machine windows are the witness machines'
// busy hulls and the independent sets are per-machine colorings of the
// witness assignment. The b-matching must then succeed (the witness is a
// certificate), and the returned schedule costs at most the sum of the
// witness machines' hull lengths.
//
// This exercises the exact code path the analysis of Theorem 3.2 relies on,
// with enumeration replaced by a correct guess.
func ScheduleFromWitness(witness *core.Schedule) (*core.Schedule, error) {
	in := witness.Instance()
	var machines []MachineSpec
	var iss [][]int
	for m := 0; m < witness.NumMachines(); m++ {
		jobs := witness.MachineJobs(m)
		if len(jobs) == 0 {
			continue
		}
		set := make(interval.Set, len(jobs))
		for i, j := range jobs {
			set[i] = in.Jobs[j].Iv
		}
		hull, _ := set.Hull()
		machines = append(machines, MachineSpec{Window: hull})
		for _, class := range interval.MinColoring(set) {
			is := make([]int, len(class))
			for i, pos := range class {
				is[i] = jobs[pos]
			}
			iss = append(iss, is)
		}
	}
	assign, ok, err := MatchISsToMachines(in, machines, iss)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("boundedlength: witness-derived guess had no perfect matching")
	}
	s := core.NewSchedule(in)
	opened := make([]int, len(machines))
	for i := range opened {
		opened[i] = s.OpenMachine()
	}
	for h, is := range iss {
		for _, j := range is {
			s.Assign(j, opened[assign[h]])
		}
	}
	if err := s.Verify(); err != nil {
		return nil, fmt.Errorf("boundedlength: matched schedule infeasible: %w", err)
	}
	return s, nil
}

// SegmentationOverhead returns cost(Schedule)/OPT-style diagnostics for
// Lemma 3.3: the cost of the best segment-respecting schedule this package
// produces and the unrestricted optimum (when exactly solvable). Used by
// the harness to verify the ≤ 2 segmentation loss empirically.
func SegmentationOverhead(in *core.Instance, opts Options) (segmented, unrestricted float64, err error) {
	s, err := Schedule(in, opts, new(core.Scratch))
	if err != nil {
		return 0, 0, err
	}
	opt, err := exact.Solve(in)
	if err != nil {
		return 0, 0, err
	}
	return s.Cost(), opt.Cost(), nil
}
