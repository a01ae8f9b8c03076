package core

import "math/bits"

// Rule names one of the kernel's greedy placement rules. Every greedy
// algorithm of the library is one Rule driven in one job order: FirstFit
// (§2.1) is LowestFit in length order, the §3.1 proper greedy is NextFit in
// start order, and the online model runs a rule in arrival order.
//
// Every rule is sound with respect to the naive per-machine scan it
// replaces: prunings only skip machines that provably cannot change the
// outcome, so kernel-routed schedulers are byte-identical to their ad-hoc
// loops (the registry-wide differential suite pins this down).
type Rule int

const (
	// LowestFit is the FirstFit rule: the lowest-indexed machine that fits
	// the job, a fresh one when none does.
	LowestFit Rule = iota
	// BestFit is the least-busy-time-growth argmin over the machines that
	// fit the job, a fresh machine when none does.
	BestFit
	// NextFit is the single-open-machine cursor.
	NextFit
)

// orderBlock is the number of job records ApplyOrder gathers before placing
// them: 256 records, 8 KiB, held by the arena from its first ApplyOrder. A
// fixed block keeps the gathered reads overlapping without a retained
// per-job table.
const orderBlock = 256

// apply places the job of rec by rule r and returns the machine.
func (s *Schedule) apply(r Rule, rec *jobRec) int {
	switch r {
	case BestFit:
		return s.bestFit(rec)
	case NextFit:
		return s.nextFit(rec)
	default:
		return s.firstFit(rec)
	}
}

// ApplyOrder places the jobs of order, in sequence, by rule r: the same
// placements, machines and span deltas however the order is split between
// calls. It is the one rule-driven placement on a live schedule. It gathers
// the records of orderBlock jobs at a time before placing them, so the
// random reads of each job's fields overlap in one tight loop and the
// placements read one sequential record per job. It panics on a sealed
// schedule or a job placed twice; a job already placed before its block is
// refused while the block is gathered.
func (s *Schedule) ApplyOrder(r Rule, order []int32) {
	s.refuseSealed()
	for len(order) > 0 {
		blk := s.gather(order[:min(len(order), orderBlock)])
		for i := range blk {
			s.apply(r, &blk[i])
		}
		order = order[len(blk):]
	}
}

// gather fills the schedule's record block with the records of order's
// jobs (at most orderBlock of them), refusing a job that is already placed,
// and returns the filled part. The scratch's first gather allocates the
// block.
func (s *Schedule) gather(order []int32) []jobRec {
	sc := s.scratch
	if sc.block == nil {
		sc.allocs++
		sc.block = new([orderBlock]jobRec)
	}
	blk := sc.block[:len(order)]
	jobs, ranks, assign := s.inst.Jobs, s.ia.ranks, s.assign
	for i, j := range order {
		if m := assign[j]; m != Unassigned {
			panicAssigned(int(j), m)
		}
		job := &jobs[j]
		blk[i] = jobRec{iv: job.Iv, w: span{ranks[2*j], ranks[2*j+1]}, demand: int32(job.Demand), j: j}
	}
	return blk
}

// nextFit places the job of r on the kernel's single open machine, opening
// a fresh one (and abandoning the old one permanently) when the job does not
// fit, and returns the machine. The cursor lives on the schedule and starts
// closed, so the first placement always opens machine 0 and a recycled
// schedule resets it for free.
func (s *Schedule) nextFit(r *jobRec) int {
	if s.cursor != Unassigned {
		lo, hi := s.ia.buckets(r.w)
		if s.tryAssign(r, s.cursor, lo, hi) {
			return s.cursor
		}
	}
	s.cursor = s.assignNew(r)
	return s.cursor
}

// bestFit places the job of r on the feasible machine whose busy time grows
// the least — ties to the lowest index, a fresh machine when none fits — and
// returns the machine. The scan ranks each candidate by its span delta
// before asking whether the job fits, and is pruned by three sound
// observations on top of the capacity hints:
//
//   - a machine whose busy hull is disjoint from the job's window (or that
//     is empty) grows by the full job length, the maximum possible delta, so
//     once any candidate is held such machines can never win the argmin
//     (ties go to the earlier candidate);
//   - once a candidate is held, a machine whose delta does not beat it
//     cannot replace it whether or not the job fits, so its capacity is
//     never probed;
//   - a machine with a fully saturated axis bucket inside the job's window
//     provably rejects, so the index's saturation bitmap skips whole words
//     of such machines without probing them.
//
// All three only skip machines that cannot change the argmin, so the
// produced schedule is byte-identical to probing every machine in order.
// It inserts the job with the load its winning probe read and, when that
// probe found the job fills the machine, marks the runs the probe kept.
func (s *Schedule) bestFit(r *jobRec) int {
	m, used, v := s.bestFitProbe(r)
	if m == Unassigned {
		return s.assignNew(r)
	}
	lo, hi := s.ia.buckets(r.w)
	s.insert(&s.machines[m], r, m, used, lo, hi)
	if v == fills {
		s.markRuns(m, s.pool.kept)
	}
	return m
}

// bestFitProbe returns the machine BestFit would choose for the job of r,
// or Unassigned when no machine fits, without placing the job, with the
// load bound and verdict of the machine's probe (canAssign). When the
// verdict is fills, the probe's runs are in the pool's kept buffer: each
// accepted candidate that fills swaps its runs there, so later queries
// cannot overwrite them.
func (s *Schedule) bestFitProbe(r *jobRec) (int, int, verdict) {
	nm := len(s.machines)
	bestM, bestDelta, bestUsed, bestV := -1, 0.0, 0, rejects
	if nm == 0 {
		return Unassigned, 0, rejects
	}
	lo, hi := s.ia.buckets(r.w)
	for wi := 0; wi*64 < nm; wi++ {
		free := ^s.index.blockedWord(wi, lo, hi)
		for free != 0 {
			m := wi*64 + bits.TrailingZeros64(free)
			free &= free - 1
			if m >= nm {
				break
			}
			st := &s.machines[m]
			if bestM >= 0 && bestDelta <= r.iv.Len() &&
				(len(st.jobs) == 0 || !r.iv.Overlaps(st.hull)) {
				// A disjoint (or empty) machine's delta is exactly the job
				// length; it cannot beat the held candidate. The bestDelta
				// guard keeps the skip sound even if floating point ever
				// reported a candidate delta above the length.
				continue
			}
			delta := st.spans.Delta(r.iv)
			if bestM >= 0 && delta >= bestDelta {
				continue
			}
			if used, v := s.canAssign(r, m, lo, hi); v != rejects {
				bestM, bestDelta, bestUsed, bestV = m, delta, used, v
				if v == fills {
					s.pool.runs, s.pool.kept = s.pool.kept, s.pool.runs
				}
			}
		}
	}
	if bestM < 0 {
		return Unassigned, 0, rejects
	}
	return bestM, bestUsed, bestV
}
