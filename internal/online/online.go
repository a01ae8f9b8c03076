// Package online studies the online variant of busy-time scheduling: jobs
// are revealed at their start times (with their end times) and must be
// assigned to a machine immediately and irrevocably. The offline FirstFit of
// the paper needs the full job list up front (it sorts by length); online
// algorithms cannot, which is exactly the gap the §2.1 length sort closes.
//
// The package has two halves that share one vocabulary, the kernel's
// core.Rule (LowestFit, BestFit, NextFit):
//
//   - Replay. The registered rows "online-firstfit", "online-bestfit" and
//     "online-nextfit" are greedy rows of the algorithm registry: a rule
//     driven in arrival order by the shared driver algo.RunGreedy, so the
//     Solver's batch fan-out, the decomposition layer and the CLI run
//     online replays exactly like offline algorithms. Lookahead is the
//     semi-online variant over the same driver.
//   - Sessions. Session and Pool are the genuinely incremental handles: fed
//     one arrival at a time with no instance up front, they place by the
//     same rules over their own rolling-horizon machines. The differential
//     suites pin a Session fed in arrival order byte-identical to the
//     replay row of its rule.
package online

import (
	"context"
	"fmt"

	"busytime/internal/algo"
	"busytime/internal/core"
)

// rows are the online replay rows: each rule in arrival order (start, end,
// ID), the order in which the online model reveals jobs.
var rows = []algo.GreedyRow{
	{
		Name:        "online-firstfit",
		Description: "online firstfit by arrival order (jobs revealed at start times)",
		Order:       (*core.Instance).StartOrder,
		Rule:        core.LowestFit,
	},
	{
		Name:        "online-bestfit",
		Description: "online bestfit by arrival order (jobs revealed at start times)",
		Order:       (*core.Instance).StartOrder,
		Rule:        core.BestFit,
	},
	{
		Name:        "online-nextfit",
		Description: "online nextfit by arrival order (jobs revealed at start times)",
		Order:       (*core.Instance).StartOrder,
		Rule:        core.NextFit,
	},
}

func init() { algo.RegisterGreedy(rows...) }

// RuleByName returns the placement rule of a registered online row
// ("online-firstfit", "online-bestfit" or "online-nextfit"). Only the full
// registered names match.
func RuleByName(name string) (core.Rule, bool) {
	for _, r := range rows {
		if r.Name == name {
			return r.Rule, true
		}
	}
	return 0, false
}

// ruleName returns the registered name of the online row placing by rule,
// or "" for a value that is not one of the kernel's rules.
func ruleName(rule core.Rule) string {
	for _, r := range rows {
		if r.Rule == rule {
			return r.Name
		}
	}
	return ""
}

// Lookahead returns the semi-online replay of rule as a registry entry,
// named after the online row placing by rule: the scheduler sees a buffer
// of the next k future arrivals and repeatedly extracts the longest
// buffered job (ties by start, end, ID — FirstFit's offline order) before
// placing it by rule. k = 1 degenerates to arrival order; k ≥ n recovers
// the offline processing order exactly, so with core.LowestFit it equals
// the paper's offline FirstFit. The shared buffer spans components, so the
// entry declares no Decompose; Run rejects k < 1.
func Lookahead(rule core.Rule, k int) algo.Algorithm {
	name := ruleName(rule)
	return algo.Algorithm{
		Name:        name,
		Description: fmt.Sprintf("%s with a %d-arrival lookahead buffer", name, k),
		Run: func(_ context.Context, in *core.Instance, sc *core.Scratch) (*core.Schedule, error) {
			if k < 1 {
				return nil, fmt.Errorf("online: lookahead %d, want ≥ 1", k)
			}
			return algo.RunGreedy(in, sc, lookaheadOrder(in, k), rule), nil
		},
	}
}

// RunLookahead runs Lookahead(rule, k) on a Scratch of its own and verifies
// the schedule feasible.
func RunLookahead(in *core.Instance, k int, rule core.Rule) (*core.Schedule, error) {
	s, err := Lookahead(rule, k).Run(context.Background(), in, new(core.Scratch))
	if err != nil {
		return nil, err
	}
	if err := s.Verify(); err != nil {
		return nil, fmt.Errorf("online: lookahead %s infeasible: %w", ruleName(rule), err)
	}
	return s, nil
}

// lookaheadOrder returns the order in which a k-arrival buffer releases the
// jobs. Which job leaves the buffer depends only on the jobs, never on where
// earlier ones were placed, so the order is computed up front and the
// placements run through the shared greedy driver. The buffer is a binary
// heap of at most min(k, n) jobs keyed by FirstFit's total order — length
// descending, then start, end and ID — so the order costs O(n log min(k, n)).
func lookaheadOrder(in *core.Instance, k int) []int32 {
	arrivals := in.StartOrder()
	order := make([]int32, 0, len(arrivals))
	heap := make([]int32, 0, min(k, len(arrivals)))
	before := func(a, b int32) bool {
		ja, jb := in.Jobs[a], in.Jobs[b]
		switch {
		case ja.Len() != jb.Len():
			return ja.Len() > jb.Len()
		case ja.Iv.Start != jb.Iv.Start:
			return ja.Iv.Start < jb.Iv.Start
		case ja.Iv.End != jb.Iv.End:
			return ja.Iv.End < jb.Iv.End
		}
		return ja.ID < jb.ID
	}
	for next := 0; next < len(arrivals) || len(heap) > 0; {
		for ; len(heap) < k && next < len(arrivals); next++ {
			heap = append(heap, arrivals[next])
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if !before(heap[i], heap[p]) {
					break
				}
				heap[i], heap[p] = heap[p], heap[i]
				i = p
			}
		}
		order = append(order, heap[0])
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && before(heap[c+1], heap[c]) {
				c++
			}
			if !before(heap[c], heap[i]) {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	return order
}
