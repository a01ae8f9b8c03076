// Package localsearch provides improvement passes that post-process any
// feasible schedule without ever violating feasibility or increasing cost:
//
//   - Move: relocate single jobs to the machine where they add the least
//     busy time (including machines they empty out of entirely);
//   - Merge: fuse two machines when their combined job set still respects g
//     and the union is cheaper than the parts.
//
// The passes iterate to a local optimum. They are ablation A3 of DESIGN.md:
// the paper's algorithms are one-shot; this measures how much a generic
// improvement step adds on top of FirstFit.
package localsearch

import (
	"context"

	"busytime/internal/algo"
	"busytime/internal/core"
	"busytime/internal/interval"
)

func init() {
	algo.Register(algo.Algorithm{
		Name:        "firstfit+ls",
		Description: "FirstFit (§2.1) followed by move/merge local search to a local optimum (ablation A3)",
		// The first-fit schedule and the improved one share sc: improve
		// copies its working state out of the input before rebuilding.
		Run: func(_ context.Context, in *core.Instance, sc *core.Scratch) (*core.Schedule, error) {
			return improve(algo.RunGreedy(in, sc, in.LengthOrder(), core.LowestFit), Options{}, sc)
		},
		// The move pass shuffles member order as it relocates jobs, so the
		// rebuilt machine job lists (and their float span accumulation) depend
		// on cross-machine state; splitting the search per component would
		// change intermediate orders. Not decomposable.
	})
}

// Options bounds the search.
type Options struct {
	// MaxRounds caps full improvement sweeps (default 20).
	MaxRounds int
	// Tolerance is the minimum cost improvement to accept a move
	// (default 1e-9, guarding against float churn).
	Tolerance float64
}

func (o *Options) fill() {
	if o.MaxRounds == 0 {
		o.MaxRounds = 20
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-9
	}
}

// assignment is the mutable working state: job -> machine plus per-machine
// job lists. We rebuild a core.Schedule only at the end, because
// core.Schedule is append-only by design.
type assignment struct {
	in     *core.Instance
	of     []int
	member [][]int // machine -> job indices
}

func fromSchedule(s *core.Schedule) *assignment {
	in := s.Instance()
	a := &assignment{in: in, of: make([]int, in.N()), member: make([][]int, s.NumMachines())}
	for j := 0; j < in.N(); j++ {
		m := s.MachineOf(j)
		a.of[j] = m
		a.member[m] = append(a.member[m], j)
	}
	return a
}

func (a *assignment) set(m int) interval.Set {
	set := make(interval.Set, 0, len(a.member[m]))
	for _, j := range a.member[m] {
		set = append(set, a.in.Jobs[j].Iv)
	}
	return set
}

// fits reports whether the jobs of the given lists, together on one
// machine, stay within capacity g: one closed-interval demand sweep over
// their start and end events.
func (a *assignment) fits(lists ...[]int) bool {
	var evs []evt
	for _, list := range lists {
		for _, j := range list {
			job := a.in.Jobs[j]
			evs = append(evs, evt{job.Iv.Start, job.Demand}, evt{job.Iv.End, -job.Demand})
		}
	}
	sortEvents(evs)
	depth := 0
	for _, e := range evs {
		depth += e.delta
		if depth > a.in.G {
			return false
		}
	}
	return true
}

type evt = struct {
	t     float64
	delta int
}

func sortEvents(evs []evt) {
	// starts before ends at equal t (closed semantics): +delta first.
	for i := 1; i < len(evs); i++ {
		for k := i; k > 0; k-- {
			if evs[k].t < evs[k-1].t ||
				(evs[k].t == evs[k-1].t && evs[k].delta > evs[k-1].delta) {
				evs[k], evs[k-1] = evs[k-1], evs[k]
				continue
			}
			break
		}
	}
}

func (a *assignment) cost(m int) float64 { return a.set(m).Span() }

func (a *assignment) move(j, to int) {
	from := a.of[j]
	list := a.member[from]
	for i, jj := range list {
		if jj == j {
			a.member[from] = append(list[:i], list[i+1:]...)
			break
		}
	}
	a.member[to] = append(a.member[to], j)
	a.of[j] = to
}

// Improve runs move and merge passes until no improvement or MaxRounds.
// It returns a new schedule; the input is not modified. The result's cost is
// never worse than the input's and feasibility is preserved.
func Improve(s *core.Schedule, opts Options) (*core.Schedule, error) {
	return improve(s, opts, new(core.Scratch))
}

// improve is Improve with the final schedule drawn from sc. The input
// schedule may itself live on sc: the working state is copied out of it up
// front, so rebuilding over the same arena is safe (the input is
// invalidated, like any schedule on a recycled scratch).
func improve(s *core.Schedule, opts Options, sc *core.Scratch) (*core.Schedule, error) {
	opts.fill()
	a := fromSchedule(s)
	for round := 0; round < opts.MaxRounds; round++ {
		improved := a.movePass(opts.Tolerance)
		if a.mergePass(opts.Tolerance) {
			improved = true
		}
		if !improved {
			break
		}
	}
	return a.build(sc.NewSchedule(a.in))
}

// movePass relocates each job to its cheapest feasible machine.
func (a *assignment) movePass(tol float64) bool {
	improved := false
	for j := range a.of {
		from := a.of[j]
		// Cost of from-machine with and without j.
		withJ := a.cost(from)
		a.move(j, from) // no-op shuffle keeps member order stable
		bestTo, bestGain := -1, tol
		// Removing j from `from`:
		a.removeTemporarily(j, func() {
			without := a.cost(from)
			saved := withJ - without
			for to := range a.member {
				if to == from {
					continue
				}
				if !a.fits(a.member[to], []int{j}) {
					continue
				}
				before := a.cost(to)
				after := append(a.set(to), a.in.Jobs[j].Iv).Span()
				gain := saved - (after - before)
				if gain > bestGain {
					bestGain, bestTo = gain, to
				}
			}
		})
		if bestTo >= 0 {
			a.move(j, bestTo)
			improved = true
		}
	}
	return improved
}

// removeTemporarily removes job j from its machine, runs f, and restores it.
func (a *assignment) removeTemporarily(j int, f func()) {
	m := a.of[j]
	list := a.member[m]
	idx := -1
	for i, jj := range list {
		if jj == j {
			idx = i
			break
		}
	}
	a.member[m] = append(list[:idx:idx], list[idx+1:]...)
	f()
	a.member[m] = append(a.member[m], j)
}

// mergePass fuses machine pairs when feasible and strictly cheaper.
func (a *assignment) mergePass(tol float64) bool {
	improved := false
	for m1 := 0; m1 < len(a.member); m1++ {
		if len(a.member[m1]) == 0 {
			continue
		}
		for m2 := m1 + 1; m2 < len(a.member); m2++ {
			if len(a.member[m2]) == 0 {
				continue
			}
			if !a.fits(a.member[m1], a.member[m2]) {
				continue
			}
			merged := append(a.set(m1), a.set(m2)...).Span()
			if a.cost(m1)+a.cost(m2)-merged > tol {
				jobs := append([]int(nil), a.member[m2]...)
				for _, j := range jobs {
					a.move(j, m1)
				}
				improved = true
			}
		}
	}
	return improved
}

// build materializes the assignment, compacted, into the empty schedule out.
func (a *assignment) build(out *core.Schedule) (*core.Schedule, error) {
	for _, jobs := range a.member {
		if len(jobs) == 0 {
			continue
		}
		m := out.OpenMachine()
		for _, j := range jobs {
			out.Assign(j, m)
		}
	}
	if err := out.Verify(); err != nil {
		return nil, err
	}
	return out, nil
}
