package core

import (
	"fmt"
	"math/bits"
	"slices"

	"busytime/internal/interval"
)

// Unassigned marks a job that has not been placed on any machine.
const Unassigned = -1

// Schedule is an assignment of an instance's jobs to machines. Machines are
// dense indices 0..NumMachines()-1; jobs are addressed by position in the
// instance's job slice (not by Job.ID, which is preserved metadata).
//
// Machine state is stored as a flat value slice — one contiguous record per
// machine instead of a pointer per machine — and every capacity structure a
// machine needs (shard directory, span union) is drawn from recyclable
// backing arrays, so schedules built from a Scratch reach a zero-allocation
// steady state (see Scratch).
//
// Each machine answers feasibility checks through cheap residual-capacity
// hints — its busy hull, its peak load, and a few saturation witness points
// — backed by one exact capacity oracle, the machine's time-sharded job
// lists (see CanAssign and loadShards).
type Schedule struct {
	inst     *Instance
	assign   []int
	machines []machineState
	scratch  *Scratch
	// totalBusy is Σ_m span(J_m), maintained incrementally by insert so
	// Cost is an O(1) read.
	totalBusy float64
	// index is the saturation bitmap the FirstFit and BestFit scans skip
	// provably full machines with (see machindex); ia is the instance's
	// compressed time axis and pool the shard arena. Every schedule built by
	// NewSchedule or Scratch.NewSchedule carries all three; only sealed
	// assemblies go without.
	index *machindex
	ia    *instanceAxis
	pool  *shardPool
	// cursor is the NextFit placement cursor of the kernel (NextFit): the
	// single currently open machine, or Unassigned before the first opening.
	// It lives on the schedule so recycled schedules reset it for free.
	cursor int
	// sealed marks a schedule assembled from precomputed placements (see
	// Assembly): it carries no index and its machines no capacity oracle, so
	// the mutating kernel entry points refuse to run rather than answer
	// unsoundly. All read paths (Cost, Verify, Summary, Assignment, …)
	// remain valid — Verify in particular re-derives loads independently of
	// the oracles.
	sealed bool
	// spanLog, when armed via Scratch.ArmSpanLog, records every placement's
	// span-union delta in placement order until EndSpanLog. The
	// decomposition layer's stitch merge replays these deltas in the global
	// processing order so the merged schedule's busy-time accumulation
	// reproduces the sequential run bit for bit without re-running any span
	// merge. logSpans gates the hot path.
	spanLog  []float64
	logSpans bool
}

// hotspot is a saturation hint: the machine's load at time at is known to be
// at least depth. Machines only ever gain jobs, so the bound stays valid for
// the machine's lifetime; Assign tightens it as covering jobs arrive.
type hotspot struct {
	at    float64
	depth int
}

// maxHotspots bounds the per-machine hint list; rejects beyond the cap evict
// the weakest entry.
const maxHotspots = 8

type machineState struct {
	jobs []int
	// hull is the smallest interval containing every job on the machine
	// (meaningless while jobs is empty). A candidate job outside the hull
	// trivially fits.
	hull interval.Interval
	// peak is an upper bound on the machine's maximum demand-weighted load
	// over all time — exact while placements go through TryAssign's oracle
	// query, which learns the true in-window load; plain Assign widens it
	// conservatively instead of paying a query. A candidate with
	// Demand ≤ g − peak trivially fits.
	peak int
	// hot are saturation witnesses recorded by rejected probes, stored
	// inline so recording one never allocates.
	hot  [maxHotspots]hotspot
	nhot int
	// spans is the running union of the machine's job intervals, so the
	// machine's busy time is an O(1) read and never re-derived.
	spans interval.Spans
	// shards holds the machine's jobs bucketed by time: the exact capacity
	// oracle (see loadShards).
	shards loadShards
}

// recycle clears the state for a fresh machine, retaining every backing
// allocation; OpenMachine re-sizes the shard directory.
func (st *machineState) recycle() {
	st.jobs = st.jobs[:0]
	st.hull = interval.Interval{}
	st.peak = 0
	st.nhot = 0
	st.spans.Reset()
}

// NewSchedule returns an empty schedule (all jobs unassigned) for inst, with
// the machine-selection index and the shard arena attached. The instance's
// compressed time axis is computed on first use and cached on the instance.
func NewSchedule(inst *Instance) *Schedule {
	s := blankSchedule(inst, nil)
	s.attachIndex(new(machindex), new(shardPool))
	return s
}

// blankSchedule returns an empty schedule record for inst without any
// capacity structure attached, recycled from sc when sc is non-nil (see
// Scratch.NewSchedule for the reuse contract).
func blankSchedule(inst *Instance, sc *Scratch) *Schedule {
	n := inst.N()
	if sc == nil {
		assign := make([]int, n)
		for i := range assign {
			assign[i] = Unassigned
		}
		return &Schedule{inst: inst, assign: assign, cursor: Unassigned}
	}
	s := &sc.sched
	machines := s.machines[:0]
	if cap(sc.assign) < n {
		sc.allocs++
		sc.assign = make([]int, n)
	}
	assign := sc.assign[:n]
	for i := range assign {
		assign[i] = Unassigned
	}
	*s = Schedule{inst: inst, assign: assign, machines: machines, scratch: sc, cursor: Unassigned}
	if sc.armed {
		s.spanLog, s.logSpans = sc.pendingLog, true
		sc.pendingLog, sc.armed = nil, false
	}
	sc.schedules++
	return s
}

// attachIndex wires the instance's time axis, the shard arena pool and the
// machine-selection index ix into a schedule that has no machines yet,
// resetting both arenas for the instance.
func (s *Schedule) attachIndex(ix *machindex, pool *shardPool) {
	s.ia = s.inst.timeAxis()
	s.index, s.pool = ix, pool
	pool.reset()
	ix.reset(s.ia)
}

// Instance returns the instance this schedule belongs to.
func (s *Schedule) Instance() *Instance { return s.inst }

// NumMachines returns the number of opened machines.
func (s *Schedule) NumMachines() int { return len(s.machines) }

// MachineOf returns the machine of job index j, or Unassigned.
func (s *Schedule) MachineOf(j int) int { return s.assign[j] }

// MachineJobs returns the job indices assigned to machine m in assignment
// order. The returned slice is owned by the schedule.
func (s *Schedule) MachineJobs(m int) []int { return s.machines[m].jobs }

// noteAlloc feeds the arena-allocation counter of the backing Scratch (a
// no-op for fresh schedules); see ScratchStats.
func (s *Schedule) noteAlloc() {
	if s.scratch != nil {
		s.scratch.allocs++
	}
}

// OpenMachine creates a new empty machine and returns its index. Machine
// records beyond the backing array's retained capacity are appended; within
// it, the previous instance's record is recycled in place.
func (s *Schedule) OpenMachine() int {
	m := len(s.machines)
	if m < cap(s.machines) {
		s.machines = s.machines[:m+1]
	} else {
		s.noteAlloc()
		s.machines = append(s.machines, machineState{})
	}
	st := &s.machines[m]
	st.recycle()
	if !s.sealed {
		s.index.addMachine()
		if st.shards.init(s.ia) {
			s.noteAlloc()
		}
	}
	return m
}

// jobBuckets returns the axis bucket overlap range of job j's window, or an
// empty range on a degenerate axis. The range is precomputed per job with
// the axis, so the hot path never searches. Every capacity probe and
// placement starts here, so this is also where sealed schedules, which have
// no axis attached, refuse them.
func (s *Schedule) jobBuckets(j int) (lo, hi int) {
	if s.sealed {
		panic("core: capacity probe or placement on a sealed schedule")
	}
	if s.ia.nb == 0 {
		return 0, -1
	}
	return int(s.ia.jobLo[j]), int(s.ia.jobHi[j])
}

// CanAssign reports whether job index j fits on machine m without violating
// the capacity g at any instant (closed semantics, demand-weighted).
//
// The check consults the machine's residual-capacity hints before paying for
// an exact oracle query: a job outside the busy hull always fits, a job
// whose demand is within g − peak always fits, and a job covering a known
// saturation point that it cannot share never fits. Probes that fall through
// to the oracle and get rejected record the rejection's witness point, so
// repeated probing of a saturated machine converges to O(1).
func (s *Schedule) CanAssign(j, m int) bool {
	lo, hi := s.jobBuckets(j)
	return s.canAssign(j, m, lo, hi)
}

// canAssign is CanAssign with job j's axis bucket range precomputed.
func (s *Schedule) canAssign(j, m, lo, hi int) bool {
	job := s.inst.Jobs[j]
	st := &s.machines[m]
	g := s.inst.G
	if len(st.jobs) == 0 || !job.Iv.Overlaps(st.hull) {
		return job.Demand <= g
	}
	if st.peak+job.Demand <= g {
		return true
	}
	if st.hotRejects(job, g) {
		return false
	}
	_, ok := s.query(st, m, job, lo, hi)
	return ok
}

// hotRejects reports whether a recorded saturation witness inside job's
// window proves the job cannot fit.
func (st *machineState) hotRejects(job Job, g int) bool {
	for _, h := range st.hot[:st.nhot] {
		if h.depth+job.Demand > g && job.Iv.Contains(h.at) {
			return true
		}
	}
	return false
}

// query asks machine m's exact oracle for the maximum load within job's
// window (bucket range [lo, hi]) and reports whether the job fits on top of
// it. A rejection records its witness point and, when the oracle extracted
// one, marks the saturated run in the index's bitmap, so repeated probing
// of a saturated machine converges to O(1).
func (s *Schedule) query(st *machineState, m int, job Job, lo, hi int) (used int, ok bool) {
	g := s.inst.G
	slo, shi := s.ia.shardRange(lo, hi)
	used, at, run, sat := st.shards.maxDepthRun(s.pool, s.ia, job.Iv, g, slo, shi)
	if used+job.Demand > g {
		st.noteHot(at, used)
		if sat {
			s.markSaturatedRun(m, run)
		}
		return used, false
	}
	return used, true
}

// markSaturatedRun records a saturated run (load ≥ g at every point of run)
// of machine m in the index's saturation bitmap.
func (s *Schedule) markSaturatedRun(m int, run interval.Interval) {
	lo, hi := s.ia.ax.WithinRange(run)
	s.index.markRun(m, lo, hi)
}

// noteHot records a saturation witness, evicting the shallowest entry when
// the hint list is full.
func (st *machineState) noteHot(at float64, depth int) {
	for i := 0; i < st.nhot; i++ {
		if st.hot[i].at == at {
			if depth > st.hot[i].depth {
				st.hot[i].depth = depth
			}
			return
		}
	}
	if st.nhot < maxHotspots {
		st.hot[st.nhot] = hotspot{at, depth}
		st.nhot++
		return
	}
	weakest := 0
	for i := 1; i < st.nhot; i++ {
		if st.hot[i].depth < st.hot[weakest].depth {
			weakest = i
		}
	}
	if depth > st.hot[weakest].depth {
		st.hot[weakest] = hotspot{at, depth}
	}
}

// Assign places job index j on machine m. It panics if the job is already
// assigned or the machine does not exist; it does not re-check capacity
// (algorithms call CanAssign, and Verify re-checks everything).
//
// Assign keeps the peak hint a sound upper bound without querying the
// oracle: a job overlapping the busy hull can raise the true peak by at most
// its demand. TryAssign is the path that keeps peak exact for free.
func (s *Schedule) Assign(j, m int) {
	lo, hi := s.jobBuckets(j)
	st := &s.machines[m]
	job := s.inst.Jobs[j]
	used := 0
	if len(st.jobs) > 0 && job.Iv.Overlaps(st.hull) {
		used = st.peak
	}
	s.insert(st, j, m, used, lo, hi)
}

// TryAssign atomically checks capacity and, when job index j fits machine m,
// assigns it there, reporting success. It is the hot path of greedy
// schedulers: a successful placement costs at most one oracle query (shared
// between the check and the hint update), and most probes resolve on the
// hints alone.
func (s *Schedule) TryAssign(j, m int) bool {
	lo, hi := s.jobBuckets(j)
	return s.tryAssign(j, m, lo, hi)
}

// tryAssign is TryAssign with job j's axis bucket range precomputed, so
// FirstFitAssign resolves the range once per job instead of once per probe.
func (s *Schedule) tryAssign(j, m, lo, hi int) bool {
	st := &s.machines[m]
	job := s.inst.Jobs[j]
	g := s.inst.G
	if len(st.jobs) == 0 || !job.Iv.Overlaps(st.hull) {
		if job.Demand > g {
			return false
		}
		s.insert(st, j, m, 0, lo, hi)
		return true
	}
	if st.peak+job.Demand > g && st.hotRejects(job, g) {
		return false
	}
	used, ok := s.query(st, m, job, lo, hi)
	if ok {
		s.insert(st, j, m, used, lo, hi)
	}
	return ok
}

// FirstFitAssign places job index j by the FirstFit rule — the lowest-indexed
// machine that can process it, a fresh machine when none can — and returns
// the machine. The saturation bitmap skips whole runs of machines provably
// unable to take the job's window, and the scan stops at the first machine
// that accepts. The pruning is sound, so the produced schedule is
// byte-identical to probing every machine in order.
func (s *Schedule) FirstFitAssign(j int) int {
	if m := s.lowestFit(j, true); m != Unassigned {
		return m
	}
	return s.AssignNew(j)
}

// FirstFitProbe returns the machine FirstFitAssign would choose among the
// already-open machines — the lowest-indexed one that fits — or Unassigned
// when none fits, without placing the job or opening a machine. It runs
// FirstFitAssign's bitmap-pruned scan with capacity checks in place of
// placements; the reconciliation pass of the time-sharding layer drives it
// against live shard schedules.
func (s *Schedule) FirstFitProbe(j int) int { return s.lowestFit(j, false) }

// lowestFit scans the open machines for the lowest-indexed one that fits job
// j, placing the job there when place is set, and returns it (Unassigned
// when none fits).
func (s *Schedule) lowestFit(j int, place bool) int {
	lo, hi := s.jobBuckets(j)
	nm := len(s.machines)
	for wi := 0; wi*64 < nm; wi++ {
		free := ^s.index.blockedWord(wi, lo, hi)
		for free != 0 {
			m := wi*64 + bits.TrailingZeros64(free)
			if m >= nm {
				break
			}
			if s.fitsAt(j, m, lo, hi, place) {
				return m
			}
			free &= free - 1
		}
	}
	return Unassigned
}

// fitsAt probes job j on machine m, placing it there on success when place
// is set.
func (s *Schedule) fitsAt(j, m, lo, hi int, place bool) bool {
	if place {
		return s.tryAssign(j, m, lo, hi)
	}
	return s.canAssign(j, m, lo, hi)
}

// EndSpanLog stops the span-delta log the schedule was created with
// (Scratch.ArmSpanLog) and returns what it recorded; nil when no log was
// armed. Entry i is the busy-time contribution of the i-th placement, in
// placement order — the values insert folded into Cost. Later placements
// are not logged.
func (s *Schedule) EndSpanLog() []float64 {
	log := s.spanLog
	s.spanLog, s.logSpans = nil, false
	return log
}

// AppendMachineSpans appends machine m's busy-span pieces (the disjoint,
// ascending union of its job intervals) to dst and returns the extended
// slice. It is the capture half of the decomposition layer's stitch merge:
// the pieces are copied out of the live per-machine span union so a sealed
// assembly can adopt them wholesale instead of re-merging every job.
func (s *Schedule) AppendMachineSpans(m int, dst interval.Set) interval.Set {
	return s.machines[m].spans.AppendTo(dst)
}

// insert performs the bookkeeping of placing job index j on machine state st
// (machine index m): shard copies, assignment map, and the hint updates.
// used must be at least the machine's maximum load within the job's window
// before insertion (exact keeps peak exact; an upper bound keeps it sound).
// lo/hi is the job's axis bucket range.
func (s *Schedule) insert(st *machineState, j, m, used, lo, hi int) {
	if s.assign[j] != Unassigned {
		panic(fmt.Sprintf("core: job index %d already assigned to machine %d", j, s.assign[j]))
	}
	job := s.inst.Jobs[j]
	slo, shi := s.ia.shardRange(lo, hi)
	st.shards.add(s.pool, job.Iv, job.Demand, slo, shi)
	if len(st.jobs) == 0 {
		st.hull = job.Iv
	} else {
		st.hull = st.hull.Hull(job.Iv)
	}
	st.jobs = append(st.jobs, j)
	if used+job.Demand > st.peak {
		st.peak = used + job.Demand
	}
	for i := 0; i < st.nhot; i++ {
		if job.Iv.Contains(st.hot[i].at) {
			st.hot[i].depth += job.Demand
		}
	}
	d := st.spans.Add(job.Iv)
	s.totalBusy += d
	if s.logSpans {
		s.spanLog = append(s.spanLog, d)
	}
	s.assign[j] = m
}

// AssignNew opens a fresh machine for job index j and returns the machine.
func (s *Schedule) AssignNew(j int) int {
	m := s.OpenMachine()
	s.Assign(j, m)
	return m
}

// Complete reports whether every job is assigned.
func (s *Schedule) Complete() bool {
	for _, m := range s.assign {
		if m == Unassigned {
			return false
		}
	}
	return true
}

// MachineSet returns the interval set of the jobs on machine m.
func (s *Schedule) MachineSet(m int) interval.Set {
	jobs := s.machines[m].jobs
	set := make(interval.Set, len(jobs))
	for i, j := range jobs {
		set[i] = s.inst.Jobs[j].Iv
	}
	return set
}

// MachineBusy returns span(J_m): the measure of time machine m has at least
// one active job. This is the machine's contribution to the objective, read
// in O(1) from the machine's incrementally maintained span union.
func (s *Schedule) MachineBusy(m int) float64 { return s.machines[m].spans.Total() }

// SpanDelta returns the busy-time increase machine m would incur if an
// interval iv were added to it, without modifying the schedule. Best-fit
// style schedulers use it to rank machines without rebuilding interval sets.
func (s *Schedule) SpanDelta(m int, iv interval.Interval) float64 {
	return s.machines[m].spans.Delta(iv)
}

// Cost returns the total busy time Σ_m span(J_m), an O(1) read of the total
// maintained by insert. Unassigned jobs contribute nothing; call Complete or
// Verify to ensure totality.
func (s *Schedule) Cost() float64 { return s.totalBusy }

// Verify checks that the schedule is feasible: instance valid, every job
// assigned to an existing machine, and no machine exceeds capacity g at any
// instant (demand-weighted, closed semantics). It returns nil if feasible.
func (s *Schedule) Verify() error {
	if err := s.inst.Validate(); err != nil {
		return err
	}
	for j, m := range s.assign {
		if m == Unassigned {
			return fmt.Errorf("core: job index %d (ID %d) unassigned", j, s.inst.Jobs[j].ID)
		}
		if m < 0 || m >= len(s.machines) {
			return fmt.Errorf("core: job index %d assigned to invalid machine %d", j, m)
		}
	}
	for m := range s.machines {
		if peak := maxWeightedDepth(s.inst, s.machines[m].jobs); peak > s.inst.G {
			return fmt.Errorf("core: machine %d reaches load %d > g = %d", m, peak, s.inst.G)
		}
	}
	return nil
}

// maxWeightedDepth computes the maximum demand-weighted closed depth of the
// given job indices, independently of the capacity oracles (so Verify can
// catch bookkeeping bugs in the oracles themselves).
func maxWeightedDepth(inst *Instance, jobs []int) int {
	type ev struct {
		t     float64
		delta int
	}
	evs := make([]ev, 0, 2*len(jobs))
	for _, j := range jobs {
		job := inst.Jobs[j]
		evs = append(evs, ev{job.Iv.Start, job.Demand}, ev{job.Iv.End, -job.Demand})
	}
	slices.SortFunc(evs, func(a, b ev) int {
		if a.t != b.t {
			return cmpCoord(a.t, b.t)
		}
		return b.delta - a.delta // starts before ends: closed depth
	})
	depth, best := 0, 0
	for _, e := range evs {
		depth += e.delta
		if depth > best {
			best = depth
		}
	}
	return best
}

// Assignment exports the job→machine map keyed by Job.ID.
func (s *Schedule) Assignment() map[int]int {
	out := make(map[int]int, len(s.assign))
	for j, m := range s.assign {
		out[s.inst.Jobs[j].ID] = m
	}
	return out
}

// MachineSummary describes one machine of a finished schedule.
type MachineSummary struct {
	Machine int
	JobIDs  []int
	Busy    interval.Set // disjoint busy intervals (union of its jobs)
	Cost    float64
}

// Summary returns a per-machine breakdown sorted by machine index. The busy
// intervals are copied from each machine's incrementally maintained span
// union rather than re-derived, so the pass is linear in the output size.
func (s *Schedule) Summary() []MachineSummary {
	out := make([]MachineSummary, len(s.machines))
	for m := range s.machines {
		st := &s.machines[m]
		ids := make([]int, len(st.jobs))
		for i, j := range st.jobs {
			ids[i] = s.inst.Jobs[j].ID
		}
		slices.Sort(ids)
		out[m] = MachineSummary{
			Machine: m,
			JobIDs:  ids,
			Busy:    st.spans.AppendTo(make(interval.Set, 0, st.spans.Count())),
			Cost:    st.spans.Total(),
		}
	}
	return out
}

// FromAssignment reconstructs a schedule from a Job.ID→machine map, e.g. one
// previously exported with Assignment or decoded from JSON. Machine indices
// are compacted preserving their relative order.
func FromAssignment(inst *Instance, byID map[int]int) (*Schedule, error) {
	s := NewSchedule(inst)
	machines := make([]int, 0, len(byID))
	seen := map[int]bool{}
	for _, m := range byID {
		if !seen[m] {
			seen[m] = true
			machines = append(machines, m)
		}
	}
	slices.Sort(machines)
	remap := make(map[int]int, len(machines))
	for dense, m := range machines {
		remap[m] = dense
		s.OpenMachine()
	}
	for j, job := range inst.Jobs {
		m, ok := byID[job.ID]
		if !ok {
			return nil, fmt.Errorf("core: assignment missing job ID %d", job.ID)
		}
		s.Assign(j, remap[m])
	}
	return s, nil
}
