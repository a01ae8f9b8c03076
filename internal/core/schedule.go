package core

import (
	"fmt"
	"math"
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
// machine instead of a pointer per machine — and every schedule is drawn
// from a Scratch, whose recyclable backing arrays hold its records and every
// capacity structure a machine needs (shard directory, span union), so the
// schedules one Scratch serves reach a zero-allocation steady state.
//
// Each machine answers feasibility checks through cheap residual-capacity
// hints — its busy hull, its peak load, and a few saturation witness points
// — backed by one exact capacity oracle, the machine's time-sharded job
// lists (see canAssign and loadShards).
//
// A schedule is filled through one of two doors: ApplyOrder runs a greedy
// Rule over a job order, and OpenMachine with Assign places jobs on
// machines the caller has already chosen.
type Schedule struct {
	inst     *Instance
	assign   []int
	machines []machineState
	// scratch is the arena the schedule is drawn from: it counts the
	// schedule's setup allocations and holds ApplyOrder's record block.
	scratch *Scratch
	// totalBusy is Σ_m span(J_m), maintained incrementally by insert so
	// Cost is an O(1) read.
	totalBusy float64
	// index is the saturation bitmap the FirstFit and BestFit scans skip
	// provably full machines with (see machindex); ia is the instance's
	// compressed time axis and pool the shard arena. Every schedule built by
	// NewSchedule or Scratch.NewSchedule carries all three; only sealed
	// assemblies go without.
	index *machindex
	ia    *Axis
	pool  *shardPool
	// cursor is the NextFit placement cursor of the kernel (NextFit): the
	// single currently open machine, or Unassigned before the first opening.
	// It lives on the schedule so recycled schedules reset it for free.
	cursor int
	// sealed marks a schedule assembled from precomputed placements (see
	// Assembly): it carries no index and its machines no capacity oracle, so
	// ApplyOrder and Assign refuse to run rather than answer unsoundly. All
	// read paths (Cost, Verify, Summary, Assignment, …) remain valid —
	// Verify in particular re-derives loads independently of the oracles.
	sealed bool
	// spanLog, when armed via Scratch.ArmSpanLog, records every placement's
	// span-union delta in placement order until EndSpanLog. The
	// decomposition layer's stitch merge replays these deltas in the global
	// processing order so the merged schedule's busy-time accumulation
	// reproduces the sequential run bit for bit without re-running any span
	// merge. logSpans gates the hot path.
	spanLog  []float64
	logSpans bool
	// work counts the kernel's capacity work on this schedule (see Work).
	work WorkCounts
}

// WorkCounts counts the placement kernel's capacity work on one schedule
// since it was created. The counts are deterministic for a given instance,
// job order and rule, so two versions of the kernel compare on them exactly
// where timings on a shared host cannot.
type WorkCounts struct {
	// Probes counts capacity checks of one job against one open machine,
	// one per machine the FirstFit, BestFit and NextFit rules check.
	Probes int
	// DisjointAccepts counts probes accepted because the machine was empty
	// or its busy hull missed the job; PeakAccepts those accepted on a peak
	// bound alone (the all-time peak, or the tail peak after a gap).
	DisjointAccepts, PeakAccepts int
	// WitnessRejects counts probes rejected by a recorded saturation
	// witness without a query.
	WitnessRejects int
	// Queries counts exact capacity-oracle queries, and QueryRejects the
	// queries that found the job does not fit.
	Queries, QueryRejects int
	// Sweeps counts the shard sweeps the queries ran, one per shard of a
	// window, and ItemsWalked the items of the chunks those sweeps visited.
	Sweeps, ItemsWalked int
	// Marks counts the saturated runs written to the bitmap's in-budget
	// columns, by rejecting queries and by placements that fill a machine
	// to g, and MarkedBuckets the buckets those writes covered.
	Marks, MarkedBuckets int
	// BitmapLoads counts the bitmap words the FirstFit and BestFit scans
	// read (summary, group-full and raw), and BitmapStores the words the
	// marks wrote (raw, group-full and summary).
	BitmapLoads, BitmapStores int
}

// Work returns the kernel work counts accumulated since the schedule was
// created; a schedule recycled from a Scratch starts again from zero.
func (s *Schedule) Work() WorkCounts {
	w := s.work
	if s.pool != nil {
		w.Sweeps, w.ItemsWalked = s.pool.sweeps, s.pool.walked
		w.BitmapLoads, w.BitmapStores = s.index.loads, s.index.stores
	}
	return w
}

// hotspot is a saturation hint: the machine's load at the endpoint of rank
// at is known to be at least depth. Machines only ever gain jobs, so the
// bound stays valid for the machine's lifetime; Assign tightens it as
// covering jobs arrive.
type hotspot struct {
	at, depth int32
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
	// over all time, not an exact one: insert raises it to at least used +
	// demand, where used bounds the load within the new job's window — the
	// true load when the placement queried the oracle, 0 on a machine whose
	// hull the job misses, and the peak bound the window reads otherwise
	// (a peak-hint accept, plain Assign; see bound), which keeps it sound
	// without paying a query. A candidate with Demand ≤ g − peak trivially
	// fits.
	peak int
	// gap and tail restart the peak bound after the machine's last gap:
	// gap is the busy hull's end when a placement last landed strictly
	// after it (−∞ before any such placement), and tail bounds the load at
	// every point after gap. Every earlier job ends by gap, so a window
	// starting after it meets only load that tail counts. insert raises tail
	// by the same used + demand as peak, which keeps it sound for any window.
	gap  float64
	tail int
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
	st.peak, st.gap, st.tail = 0, math.Inf(-1), 0
	st.nhot = 0
	st.spans.Reset()
}

// NewSchedule returns an empty schedule (all jobs unassigned) for inst on a
// Scratch of its own, so it stays valid as long as the caller keeps it. The
// instance's compressed time axis is computed on first use and cached on the
// instance.
func NewSchedule(inst *Instance) *Schedule {
	return new(Scratch).NewSchedule(inst)
}

// blankSchedule returns an empty schedule record for inst recycled from sc,
// without any capacity structure attached (see Scratch.NewSchedule for the
// reuse contract). The assignment backing array reads Unassigned everywhere
// outside the live schedule, so the reset un-assigns only the jobs on the
// previous schedule's machines, and a grown array is filled whole.
func blankSchedule(inst *Instance, sc *Scratch) *Schedule {
	n := inst.N()
	s := &sc.sched
	if cap(sc.assign) < n {
		sc.allocs++
		sc.assign = make([]int, n)
		for i := range sc.assign {
			sc.assign[i] = Unassigned
		}
	} else {
		for m := range s.machines {
			jobs := s.machines[m].jobs
			for _, j := range jobs {
				sc.assign[j] = Unassigned
			}
			sc.clearedEntries += len(jobs)
		}
	}
	*s = Schedule{inst: inst, assign: sc.assign[:n], machines: s.machines[:0], scratch: sc, cursor: Unassigned}
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
	s.ia = s.inst.TimeAxis()
	s.index, s.pool = ix, pool
	pool.reset()
	s.scratch.clearedWords += ix.reset(s.ia)
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

// OpenMachine creates a new empty machine and returns its index. Machine
// records beyond the backing array's retained capacity are appended; within
// it, the previous instance's record is recycled in place.
func (s *Schedule) OpenMachine() int {
	m := len(s.machines)
	if m < cap(s.machines) {
		s.machines = s.machines[:m+1]
	} else {
		s.scratch.allocs++
		s.machines = append(s.machines, machineState{})
	}
	st := &s.machines[m]
	st.recycle()
	if !s.sealed {
		s.index.addMachine()
		if st.shards.init(s.ia) {
			s.scratch.allocs++
		}
	}
	return m
}

// jobRec is one job as the placement kernel reads it — the float interval
// (hull and span-union bookkeeping), the rank span (capacity oracle), the
// demand and the job's index — packed into 32 bytes. Assign builds it once
// per call; ApplyOrder gathers blocks of them in processing order, so a
// placement reads one sequential record instead of the instance's job slice
// and the axis's rank array at random.
type jobRec struct {
	iv     interval.Interval
	w      span
	demand int32
	j      int32
}

// record builds job index j's kernel record. Assign starts here, so this is
// also where sealed schedules, which have no axis attached, refuse it.
func (s *Schedule) record(j int) jobRec {
	s.refuseSealed()
	job := &s.inst.Jobs[j]
	return jobRec{iv: job.Iv, w: s.ia.jobSpan(j), demand: int32(job.Demand), j: int32(j)}
}

// refuseSealed panics on a sealed schedule (see Schedule.sealed).
func (s *Schedule) refuseSealed() {
	if s.sealed {
		panic("core: placement on a sealed schedule")
	}
}

// verdict is a capacity probe's answer.
type verdict uint8

const (
	// rejects: the job does not fit.
	rejects verdict = iota
	// fits: the job fits, and used bounds the load within its window.
	fits
	// fills: the job fits, used is the exact load within its window and
	// used + demand = g, and the pool's run list holds the spans of the
	// window at load used: the spans the job saturates once inserted.
	fills
)

// canAssign decides whether the job of r, whose axis bucket range is lo..hi,
// fits on machine m without violating the capacity g at any instant (closed
// semantics, demand-weighted).
//
// The check consults the machine's residual-capacity hints before paying for
// an exact oracle query: a job outside the busy hull always fits, a job
// whose demand is within g − peak always fits (g − tail peak for a job
// starting after the machine's last gap), and a job covering a known
// saturation point that it cannot share never fits. Probes that fall through
// to the oracle and get rejected record the rejection's witness point, so
// repeated probing of a saturated machine converges to O(1).
//
// When the job fits, used is an upper bound on the machine's load within
// the job's window, as insert wants: 0 for a disjoint machine, the peak
// bound for a peak accept, and the exact load after a query. The load is
// exact on a disjoint machine and after a query, so there a job that brings
// it to g fills: on a disjoint machine its own span is the run.
func (s *Schedule) canAssign(r *jobRec, m, lo, hi int) (used int, v verdict) {
	st := &s.machines[m]
	g, d := s.inst.G, int(r.demand)
	s.work.Probes++
	if len(st.jobs) == 0 || !r.iv.Overlaps(st.hull) {
		if d > g {
			return 0, rejects
		}
		s.work.DisjointAccepts++
		if d == g {
			s.pool.runs = append(s.pool.runs[:0], r.w)
			return 0, fills
		}
		return 0, fits
	}
	if b := st.bound(r.iv.Start); b+d <= g {
		s.work.PeakAccepts++
		return b, fits
	}
	if st.hotRejects(r.w, d, g) {
		s.work.WitnessRejects++
		return 0, rejects
	}
	return s.query(st, m, r.w, d, lo, hi)
}

// bound returns the machine's load bound for a window that overlaps its
// busy hull and starts at start: the tail peak when the window starts after
// the machine's last gap, the all-time peak otherwise.
func (st *machineState) bound(start float64) int {
	if start > st.gap {
		return st.tail
	}
	return st.peak
}

// hotRejects reports whether a recorded saturation witness inside the span
// w proves that a job of the given demand cannot fit.
func (st *machineState) hotRejects(w span, demand, g int) bool {
	for _, h := range st.hot[:st.nhot] {
		if int(h.depth)+demand > g && w.contains(h.at) {
			return true
		}
	}
	return false
}

// query asks machine m's exact oracle for the maximum load within the job
// window w (bucket range [lo, hi]), which leaves the window's runs at that
// load in the pool (maxDepthRun), and reports whether a job of the given
// demand fits on top of it. A rejection records its witness and, when the
// load is at g, marks every run in the index's bitmap, so repeated probing
// of a saturated machine converges to O(1).
func (s *Schedule) query(st *machineState, m int, w span, demand, lo, hi int) (used int, v verdict) {
	g := s.inst.G
	slo, shi := s.ia.shardRange(lo, hi)
	s.work.Queries++
	used, at := st.shards.maxDepthRun(s.pool, s.ia, w, slo, shi)
	switch {
	case used+demand < g:
		return used, fits
	case used+demand == g:
		return used, fills
	}
	s.work.QueryRejects++
	st.noteHot(at, used)
	if used >= g {
		s.markRuns(m, s.pool.runs)
	}
	return used, rejects
}

// markRuns records saturated runs of machine m (load ≥ g at every point of
// each) in the index's saturation bitmap, on the buckets lying wholly
// inside them, counting the runs that reach an in-budget column.
func (s *Schedule) markRuns(m int, runs []span) {
	if m>>6 >= s.index.words {
		return
	}
	for _, run := range runs {
		if lo, hi := s.ia.within(run); lo <= hi {
			s.index.markRun(m, lo, hi)
			s.work.Marks++
			s.work.MarkedBuckets += hi - lo + 1
		}
	}
}

// noteHot records a saturation witness, evicting the shallowest entry when
// the hint list is full.
func (st *machineState) noteHot(at int32, depth int) {
	d := int32(depth)
	for i := 0; i < st.nhot; i++ {
		if st.hot[i].at == at {
			if d > st.hot[i].depth {
				st.hot[i].depth = d
			}
			return
		}
	}
	if st.nhot < maxHotspots {
		st.hot[st.nhot] = hotspot{at, d}
		st.nhot++
		return
	}
	weakest := 0
	for i := 1; i < st.nhot; i++ {
		if st.hot[i].depth < st.hot[weakest].depth {
			weakest = i
		}
	}
	if d > st.hot[weakest].depth {
		st.hot[weakest] = hotspot{at, d}
	}
}

// Assign places job index j on machine m, which the caller has chosen. It
// panics if the job is already assigned or the machine does not exist; it
// does not check capacity (Verify re-checks everything).
//
// Assign keeps the peak bounds sound without querying the oracle: a job
// overlapping the busy hull can raise the true load by at most its demand
// above the bound its window reads.
func (s *Schedule) Assign(j, m int) {
	r := s.record(j)
	s.put(&r, m)
}

// put is Assign on a job record.
func (s *Schedule) put(r *jobRec, m int) {
	lo, hi := s.ia.buckets(r.w)
	st := &s.machines[m]
	used := 0
	if len(st.jobs) > 0 && r.iv.Overlaps(st.hull) {
		used = st.bound(r.iv.Start)
	}
	s.insert(st, r, m, used, lo, hi)
}

// tryAssign checks capacity and, when the job of r fits machine m, assigns
// it there, reporting success. It is the hot path of the greedy rules: a
// probe makes at most one oracle query, shared between the check and the
// hint update, and none when the hull or peak hint proves the fit; most
// probes resolve on the hints alone. The job's axis bucket range lo..hi is
// precomputed, so a scan resolves it once per job instead of once per
// probe. A placement that fills the machine to g marks the runs it
// saturates, so later probes skip the machine there without a query.
func (s *Schedule) tryAssign(r *jobRec, m, lo, hi int) bool {
	used, v := s.canAssign(r, m, lo, hi)
	if v == rejects {
		return false
	}
	s.insert(&s.machines[m], r, m, used, lo, hi)
	if v == fills {
		s.markRuns(m, s.pool.runs)
	}
	return true
}

// firstFit places the job of r by the FirstFit rule — the lowest-indexed
// machine that can process it, a fresh machine when none can — and returns
// the machine. The saturation bitmap skips whole runs of machines provably
// unable to take the job's window, and the scan stops at the first machine
// that accepts. The pruning is sound, so the produced schedule is
// byte-identical to probing every machine in order.
func (s *Schedule) firstFit(r *jobRec) int {
	if m := s.lowestFit(r); m != Unassigned {
		return m
	}
	return s.assignNew(r)
}

// lowestFit places the job of r on the lowest-indexed open machine that fits
// it and returns the machine (Unassigned when none fits).
func (s *Schedule) lowestFit(r *jobRec) int {
	lo, hi := s.ia.buckets(r.w)
	nm := len(s.machines)
	for wi := 0; wi*64 < nm; wi++ {
		free := ^s.index.blockedWord(wi, lo, hi)
		for free != 0 {
			m := wi*64 + bits.TrailingZeros64(free)
			if m >= nm {
				break
			}
			if s.tryAssign(r, m, lo, hi) {
				return m
			}
			free &= free - 1
		}
	}
	return Unassigned
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

// insert performs the bookkeeping of placing the job of r on machine state
// st (machine index m): shard copies, assignment map, and the hint updates.
// used must be at least the machine's maximum load within the job's window
// before insertion, which keeps peak and tail sound upper bounds. A job
// starting strictly after the busy hull records the hull's end as the
// machine's gap and restarts tail: nothing before it reaches past the gap.
// lo/hi is the job's axis bucket range.
func (s *Schedule) insert(st *machineState, r *jobRec, m, used, lo, hi int) {
	j := int(r.j)
	if s.assign[j] != Unassigned {
		panicAssigned(j, s.assign[j])
	}
	d := int(r.demand)
	slo, shi := s.ia.shardRange(lo, hi)
	st.shards.add(s.pool, r.w, d, slo, shi)
	if len(st.jobs) == 0 {
		st.hull = r.iv
	} else {
		if r.iv.Start > st.hull.End {
			st.gap, st.tail = st.hull.End, 0
		}
		st.hull = st.hull.Hull(r.iv)
	}
	st.jobs = append(st.jobs, j)
	st.peak = max(st.peak, used+d)
	st.tail = max(st.tail, used+d)
	for i := 0; i < st.nhot; i++ {
		if r.w.contains(st.hot[i].at) {
			st.hot[i].depth += r.demand
		}
	}
	delta := st.spans.Add(r.iv)
	s.totalBusy += delta
	if s.logSpans {
		s.spanLog = append(s.spanLog, delta)
	}
	s.assign[j] = m
}

// panicAssigned reports a placement of job index j, which machine m already
// holds.
func panicAssigned(j, m int) {
	panic(fmt.Sprintf("core: job index %d already assigned to machine %d", j, m))
}

// assignNew opens a fresh machine for the job of r and returns the machine.
func (s *Schedule) assignNew(r *jobRec) int {
	m := s.OpenMachine()
	s.put(r, m)
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
// are compacted preserving their relative order. The map must assign every
// job of inst and name no other job ID.
func FromAssignment(inst *Instance, byID map[int]int) (*Schedule, error) {
	ids := make(map[int]bool, len(inst.Jobs))
	for _, job := range inst.Jobs {
		if _, ok := byID[job.ID]; !ok {
			return nil, fmt.Errorf("core: assignment missing job ID %d", job.ID)
		}
		ids[job.ID] = true
	}
	var unknown []int
	for id := range byID {
		if !ids[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("core: assignment names job ID %d, which the instance lacks", slices.Min(unknown))
	}
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
		s.Assign(j, remap[byID[job.ID]])
	}
	return s, nil
}
