// Package online studies the online variant of busy-time scheduling: jobs
// are revealed at their start times (with their end times) and must be
// assigned to a machine immediately and irrevocably. The offline FirstFit of
// the paper needs the full job list up front (it sorts by length); online
// algorithms cannot, which is exactly the gap the §2.1 length sort closes.
//
// The package provides an event-driven runner and three online policies —
// FirstFit, BestFit and NextFit by arrival — plus a harness hook measuring
// empirical competitive ratios against the offline optimum / lower bound.
//
// Policies place arrivals through the shared placement kernel: Place
// receives a core.Placer view instead of a raw schedule, so every policy
// rides the machine-selection index, the saturation bitmap and the arena,
// and competitive-ratio replays through a recycled core.Scratch are
// allocation-free once warm (RunScratch). The policies are also registered
// with the algorithm registry ("online-firstfit", "online-bestfit",
// "online-nextfit"), so the Solver's batch fan-out and the CLI drive online
// replays exactly like offline algorithms.
package online

import (
	"fmt"

	"busytime/internal/algo"
	"busytime/internal/core"
)

func init() {
	for _, pol := range Policies() {
		pol := pol
		algo.Register(algo.Algorithm{
			Name:        pol.Name(),
			Description: "online " + pol.Name()[len("online-"):] + " by arrival order (jobs revealed at start times)",
			Run: func(in *core.Instance) *core.Schedule {
				s, err := Run(in, pol)
				if err != nil {
					panic(err)
				}
				return s
			},
			RunScratch: func(in *core.Instance, sc *core.Scratch) *core.Schedule {
				s, err := RunScratch(in, sc, pol)
				if err != nil {
					panic(err)
				}
				return s
			},
			Decompose: decomposer(pol),
		})
	}
}

// decomposer maps a policy to its decomposition contract: the arrival-order
// replays of the memoryless FirstFit and BestFit rules decompose under the
// identity merge (arrival order restricted to a component is the component's
// arrival order, and time-disjoint components never change a placement).
// NextFit's cursor survives component boundaries, so it does not decompose.
// Lookahead replays (k > 1) carry a dynamic buffer and never route through
// the registry's Decompose; the Solver gates them off explicitly.
func decomposer(p Policy) *algo.Decomposer {
	startOrder := func(in *core.Instance) []int32 { return in.StartOrder() }
	switch p.(type) {
	case FirstFit:
		return &algo.Decomposer{
			Order: startOrder, RunComponent: algo.ComponentLowestFit,
			Stitch: true, Shard: algo.ShardLowestFit,
		}
	case BestFit:
		return &algo.Decomposer{
			Order: startOrder, RunComponent: algo.ComponentBestFit,
			Stitch: true, Shard: algo.ShardBestFit,
		}
	default:
		return nil
	}
}

// Policy decides the machine for each arriving job. Place receives the
// placement-kernel view of the schedule under construction and the arriving
// job index; it must place the job through the kernel (LowestFit, BestFit,
// NextFit, or CanPlace/Place/PlaceNew for bespoke rules) and return the
// machine it chose. The built-in policies are stateless values: per-arrival
// state such as the NextFit cursor lives in the kernel.
type Policy interface {
	Name() string
	Place(k core.Placer, j int) int
}

// Run replays the instance in arrival order (start, end, ID) through the
// policy and returns the resulting schedule. The returned schedule is
// verified feasible; policy misuse — placing nothing, double-placing, or
// overloading a machine — is reported as a wrapped error, never a panic.
func Run(in *core.Instance, p Policy) (*core.Schedule, error) {
	s := core.NewSchedule(in)
	if err := replay(in, s, p); err != nil {
		return nil, err
	}
	if err := s.Verify(); err != nil {
		return nil, fmt.Errorf("online: %s produced infeasible schedule: %w", p.Name(), err)
	}
	return s, nil
}

// RunScratch is Run with all schedule state drawn from sc, so
// competitive-ratio sweeps replaying many instances recycle one arena and
// stop allocating once warm. It skips the final feasibility re-verification
// (the kernel's checked primitives only make feasible placements; batch
// callers re-verify via the Solver's WithVerify option); misuse detection is
// identical to Run. The returned schedule is only valid until sc's next use.
func RunScratch(in *core.Instance, sc *core.Scratch, p Policy) (*core.Schedule, error) {
	s := sc.NewSchedule(in)
	if err := replay(in, s, p); err != nil {
		return nil, err
	}
	return s, nil
}

// replay feeds the arrivals to the policy and validates each decision.
func replay(in *core.Instance, s *core.Schedule, p Policy) error {
	k := s.Placer()
	for _, j := range in.StartOrder() {
		if err := placeOne(k, s, p, int(j)); err != nil {
			return err
		}
	}
	return nil
}

// placeOne invokes the policy for one arrival and validates its decision. A
// panic raised during the placement (a policy driving the raw kernel out of
// range, double-placing, …) is converted to a wrapped error so one bad
// policy cannot take down a sweep; the recover is scoped to the single
// Place call, so the error pinpoints the offending job and a panic anywhere
// outside a placement still surfaces with its stack intact.
func placeOne(k core.Placer, s *core.Schedule, p Policy, j int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("online: policy %s panicked placing job %d: %v", p.Name(), j, r)
		}
	}()
	m := p.Place(k, j)
	if got := s.MachineOf(j); got == core.Unassigned || got != m {
		return fmt.Errorf("online: policy %s returned machine %d for job %d but placed it on %d",
			p.Name(), m, j, got)
	}
	return nil
}

// FirstFit places each arrival on the lowest-indexed feasible machine
// (the kernel's index-accelerated LowestFit).
type FirstFit struct{}

// Name implements Policy.
func (FirstFit) Name() string { return "online-firstfit" }

// Place implements Policy.
func (FirstFit) Place(k core.Placer, j int) int { return k.LowestFit(j) }

// BestFit places each arrival on the feasible machine whose busy time grows
// the least (ties to the lowest index), via the kernel's pruned argmin.
type BestFit struct{}

// Name implements Policy.
func (BestFit) Name() string { return "online-bestfit" }

// Place implements Policy.
func (BestFit) Place(k core.Placer, j int) int { return k.BestFit(j) }

// NextFit keeps one open machine and abandons it permanently on overflow
// (the kernel cursor).
type NextFit struct{}

// Name implements Policy.
func (NextFit) Name() string { return "online-nextfit" }

// Place implements Policy.
func (NextFit) Place(k core.Placer, j int) int { return k.NextFit(j) }

// Policies returns every built-in policy. The built-ins are stateless, so
// the same values can drive any number of runs.
func Policies() []Policy {
	return []Policy{FirstFit{}, BestFit{}, NextFit{}}
}

// PolicyByName returns the built-in policy with the given registered name
// ("online-firstfit", …); the bare rule name without the "online-" prefix
// is also accepted. It is the single name→policy mapping, so callers
// cannot drift from Policies().
func PolicyByName(name string) (Policy, bool) {
	for _, p := range Policies() {
		if p.Name() == name || p.Name() == "online-"+name {
			return p, true
		}
	}
	return nil, false
}

// RunLookahead is the semi-online variant: the scheduler sees a buffer of
// the next k future arrivals and repeatedly extracts the longest buffered
// job (ties by start, end, ID — FirstFit's offline order) before placing it
// with the policy. k = 1 degenerates to arrival order; k ≥ n recovers the
// offline processing order exactly, so with the FirstFit policy it equals
// the paper's offline FirstFit.
func RunLookahead(in *core.Instance, k int, p Policy) (*core.Schedule, error) {
	if k < 1 {
		return nil, fmt.Errorf("online: lookahead %d, want ≥ 1", k)
	}
	arrivals := in.StartOrder()
	s := core.NewSchedule(in)
	if err := lookaheadReplay(in, s, arrivals, k, p); err != nil {
		return nil, err
	}
	if err := s.Verify(); err != nil {
		return nil, fmt.Errorf("online: lookahead %s infeasible: %w", p.Name(), err)
	}
	return s, nil
}

// RunLookaheadScratch is RunLookahead with schedule state drawn from sc, the
// warm path of Solver-driven semi-online replays. Like RunScratch it skips
// the final re-verification (the kernel only makes feasible placements); the
// returned schedule is only valid until sc's next use.
func RunLookaheadScratch(in *core.Instance, sc *core.Scratch, k int, p Policy) (*core.Schedule, error) {
	if k < 1 {
		return nil, fmt.Errorf("online: lookahead %d, want ≥ 1", k)
	}
	s := sc.NewSchedule(in)
	if err := lookaheadReplay(in, s, in.StartOrder(), k, p); err != nil {
		return nil, err
	}
	return s, nil
}

func lookaheadReplay(in *core.Instance, s *core.Schedule, arrivals []int32, k int, p Policy) error {
	view := s.Placer()
	buffer := make([]int, 0, k)
	next := 0
	fill := func() {
		for len(buffer) < k && next < len(arrivals) {
			buffer = append(buffer, int(arrivals[next]))
			next++
		}
	}
	longest := func() int {
		best := 0
		for i := 1; i < len(buffer); i++ {
			ji, jb := in.Jobs[buffer[i]], in.Jobs[buffer[best]]
			switch {
			case ji.Len() != jb.Len():
				if ji.Len() > jb.Len() {
					best = i
				}
			case ji.Iv.Start != jb.Iv.Start:
				if ji.Iv.Start < jb.Iv.Start {
					best = i
				}
			case ji.Iv.End != jb.Iv.End:
				if ji.Iv.End < jb.Iv.End {
					best = i
				}
			case ji.ID < jb.ID:
				best = i
			}
		}
		return best
	}
	for fill(); len(buffer) > 0; fill() {
		i := longest()
		j := buffer[i]
		buffer = append(buffer[:i], buffer[i+1:]...)
		if err := placeOne(view, s, p, j); err != nil {
			return err
		}
	}
	return nil
}
