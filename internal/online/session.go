package online

import (
	"fmt"
	"math"
	"slices"

	"busytime/internal/core"
	"busytime/internal/interval"
)

// Session is the incremental online handle: jobs are fed one at a time in
// non-decreasing start order — the paper's online model, where a job is
// revealed at its start time — and each is placed immediately and
// irrevocably by the session's rule. Unlike the registered online-* rows,
// which replay a complete instance through the kernel, a Session never sees
// the future: there is no job list to index, so placement state is a
// per-machine active-load list and busy union maintained exactly like the
// exact solver's incremental machines (amortized O(active jobs) per
// arrival).
//
// Sessions are rolling-horizon: a job departs either naturally, when the
// stream clock (the latest arrival start) passes its end, or early via
// Release. Departure removes its load from its machine, lowers that
// machine's entry in the fit tree FirstFit descends (a fully-idle machine
// fits any arrival, so it is re-used before a new machine opens), and
// eventually reclaims its record during window compaction, so steady-state
// memory is proportional to the live window — not to every job ever seen —
// and a warm session places, releases and compacts at zero heap allocations
// per operation.
//
// A session places by one of the kernel's rules (core.LowestFit,
// core.BestFit, core.NextFit), re-implemented over its own machines. The
// per-rule differential tests pin a Session fed in arrival order
// byte-identical (assignment, cost, machine count) to the registered replay
// row of the same rule over the completed instance.
type Session struct {
	g    int
	rule core.Rule

	machines []sessionMachine
	cursor   int // NextFit's single open machine, -1 when closed

	// recs is the retained window of job records in feed order; the record
	// of job j lives at recs[j-base]. A negative demand marks a departed
	// job (its absolute value is the original demand). Records are
	// reclaimed by compaction once they form a departed prefix.
	recs []jobRec
	base int // feed index of recs[0]

	endHeap []endEntry // min-heap of (end, job): pending natural departures

	// fit is a min-tree over the machines' used capacity in heap layout:
	// fit[1] is the root, node i has children 2i and 2i+1, and machine m is
	// leaf fit[len(fit)/2+m]. Leaves past the last open machine hold noFit.
	fit []int32

	clock float64 // latest arrival start; -Inf before the first
	cost  float64 // total busy time accrued, including retired coverage

	// Incremental fractional lower bound ∫⌈D_t/g⌉dt of the effective
	// stream (early-released jobs clipped at their release clock),
	// integrated up to lbClock with lbDemand demand currently live.
	lbClock  float64
	lbDemand int
	cumLB    float64

	live int // jobs currently holding capacity

	placed, released, expired, compactions uint64

	peakLive, peakWindow, peakMachines int

	tailBuf []tailEnt // reusable Stats projection scratch
}

// noFit fills the fit tree's unused leaves: it exceeds g−d for every
// demand d ≥ 1, because NewSessionSized bounds g by math.MaxInt32.
const noFit = math.MaxInt32

// jobRec is one retained arrival. 32 bytes: a 1e4-job live window retains
// well under a megabyte.
type jobRec struct {
	iv       interval.Interval // effective interval (End clipped on early release)
	machine  int32
	demand   int32 // > 0 holding capacity; < 0 departed with original demand -demand
	released bool  // departed early; departure counters and the bound skip it
}

type endEntry struct {
	end float64
	job int
}

type tailEnt struct {
	end    float64
	demand int32
}

// sessionMachine mirrors the exact solver's incremental machine: busy pieces
// stay sorted and disjoint because arrivals come in non-decreasing start
// order, and capacity at a new job's window is maximized at its start, so
// the demand sum over the live loads is a complete feasibility check.
type sessionMachine struct {
	busy  interval.Spans
	loads []loadRec
	used  int32
}

type loadRec struct {
	job    int
	end    float64
	demand int32
}

// NewSession returns an empty session with parallelism g placing by rule.
func NewSession(g int, rule core.Rule) (*Session, error) { return NewSessionSized(g, rule, 0) }

// NewSessionSized is NewSession with the retained-window structures
// pre-sized for about `window` simultaneously live jobs, so a stream that
// stays under the hint reaches the zero-allocation steady state without any
// growth reallocations. window ≤ 0 starts empty and grows on demand.
// Capacities are stored as int32, so g must lie in [1, math.MaxInt32].
func NewSessionSized(g int, rule core.Rule, window int) (*Session, error) {
	if g < 1 || g > math.MaxInt32 {
		return nil, fmt.Errorf("online: session parallelism g = %d, want in [1, %d]", g, math.MaxInt32)
	}
	if ruleName(rule) == "" {
		return nil, fmt.Errorf("online: unknown placement rule %d", rule)
	}
	s := &Session{g: g, rule: rule, cursor: -1, clock: math.Inf(-1), lbClock: math.Inf(-1)}
	if window > 0 {
		s.recs = make([]jobRec, 0, window)
		s.endHeap = make([]endEntry, 0, window)
		s.tailBuf = make([]tailEnt, 0, window)
	}
	return s, nil
}

// Policy returns the registered name of the replay row placing by the
// session's rule ("online-firstfit", …).
func (s *Session) Policy() string { return ruleName(s.rule) }

// Place feeds the next arrival — the closed interval iv with the given
// capacity demand — and returns the machine it was irrevocably assigned to.
// Arrivals must come in non-decreasing start order (jobs are revealed at
// their start times); an out-of-order start, a NaN, infinite or reversed
// interval, or a demand outside [1, g] is rejected without changing the
// session.
//
// Advancing the clock to iv.Start first retires every job whose end it
// passed (their departure is automatic), so placement only ever scans live
// state. The job's feed index — the handle Release and MachineOf take — is
// Jobs() just before the call.
func (s *Session) Place(iv interval.Interval, demand int) (int, error) {
	if err := s.check(iv, demand); err != nil {
		return -1, err
	}
	s.advance(iv.Start)

	var m int
	switch s.rule {
	case core.LowestFit:
		m = s.lowestFit(demand)
	case core.BestFit:
		m = s.bestFit(iv, demand)
	default:
		m = s.nextFit(demand)
	}

	id := s.base + len(s.recs)
	mc := &s.machines[m]
	mc.busy.RetireBefore(iv.Start) // settled pieces can never merge again
	s.cost += mc.busy.Add(iv)
	mc.loads = append(mc.loads, loadRec{job: id, end: iv.End, demand: int32(demand)})
	mc.used += int32(demand)
	s.setFit(m)
	s.appendRec(jobRec{iv: iv, machine: int32(m), demand: int32(demand)})
	s.endPush(endEntry{end: iv.End, job: id})

	s.lbDemand += demand
	s.live++
	s.placed++
	if s.live > s.peakLive {
		s.peakLive = s.live
	}
	s.clock = iv.Start
	return m, nil
}

// check reports why Place would reject the arrival, without changing the
// session: an interval interval.Check rejects, a demand outside [1, g], or
// a start before the clock. Callers that move the clock ahead of a Place
// (the pool's admission path) run it first, so a rejected request never
// retires jobs or advances the clock.
func (s *Session) check(iv interval.Interval, demand int) error {
	if err := interval.Check(iv.Start, iv.End); err != nil {
		return fmt.Errorf("online: %w: %v", err, iv)
	}
	if demand < 1 || demand > s.g {
		return fmt.Errorf("online: demand %d outside [1, %d]", demand, s.g)
	}
	if iv.Start < s.clock {
		return fmt.Errorf("online: out-of-order arrival %v (previous start %v): online jobs are revealed at their start times", iv, s.clock)
	}
	return nil
}

// Release departs the job with the given feed index before its natural end:
// its effective interval is clipped to end at the current clock, and its
// machine's busy span is clipped back to the coverage of the jobs still
// running there (the un-billed tail leaves Cost immediately). Closed-interval
// semantics are preserved exactly: the job still occupies its capacity slot
// at the release instant itself — an arrival at the very same clock cannot
// re-use it, just as two intervals touching at a point both hold a slot —
// and the slot frees (returning a fully-idle machine to the free pool) when
// the clock next advances strictly past, through the same retirement path a
// natural departure takes. Releasing a job that already departed returns
// (false, nil); an index that was never placed is an error. Release is
// O(live jobs on the machine).
func (s *Session) Release(job int) (bool, error) {
	if job < 0 || job >= s.base+len(s.recs) {
		return false, fmt.Errorf("online: Release(%d): no such job (placed %d)", job, s.base+len(s.recs))
	}
	if job < s.base {
		return false, nil // departed and already compacted away
	}
	rec := &s.recs[job-s.base]
	if rec.demand <= 0 || rec.released {
		return false, nil
	}
	m := int(rec.machine)
	mc := &s.machines[m]
	for i := range mc.loads {
		if mc.loads[i].job == job {
			mc.loads[i].end = s.clock
			break
		}
	}

	// The busy tail beyond the remaining effective coverage belonged solely
	// to the released job: every load's effective interval contains the
	// clock (placed at start ≤ clock, end not yet passed), so coverage is
	// one contiguous run [≤clock, newTail] and everything past newTail is
	// un-billed exactly.
	newTail := s.clock
	for _, ld := range mc.loads {
		if ld.end > newTail {
			newTail = ld.end
		}
	}
	s.cost -= mc.busy.TruncateAfter(newTail)

	if rec.iv.End > s.clock {
		rec.iv.End = s.clock // effective interval for snapshots and bounds
	}
	rec.released = true
	s.released++
	// The fractional bound integrates the effective stream with open
	// interiors (ends before starts), so the clipped job carries no demand
	// past the clock; lbClock == clock already, nothing to integrate.
	s.lbDemand -= int(rec.demand)
	// Schedule the retirement at the clipped end; the original-end heap
	// entry outlives the job and is skipped lazily.
	s.endPush(endEntry{end: s.clock, job: job})
	return true, nil
}

// Advance moves the stream clock forward to c without placing anything,
// retiring every departure it passes. The admission path uses it so a
// live-job cap judges a new arrival against the capacity actually held at
// its start time — jobs whose ends the arrival's clock has passed are
// already gone, exactly as if the arrival had been placed. Starts at or
// before the current clock, and NaN, are no-ops; Advance never errors and
// never moves backwards, so interleaving it with Place preserves the
// session's ordering contract.
func (s *Session) Advance(c float64) {
	if math.IsNaN(c) || c <= s.clock {
		return
	}
	s.advance(c)
	s.clock = c
}

// advance moves the stream clock to c: every pending end strictly before c
// departs naturally (in end order, so the running lower bound integrates
// each constant-demand segment exactly), then the bound integrates the
// remaining segment up to c.
func (s *Session) advance(c float64) {
	for len(s.endHeap) > 0 && s.endHeap[0].end < c {
		e := s.endPop()
		if e.job < s.base {
			continue // released early and compacted; nothing left to do
		}
		rec := &s.recs[e.job-s.base]
		if rec.demand <= 0 {
			continue // released early; its lazy heap entry survives it
		}
		s.integrateLB(e.end)
		d := rec.demand
		m := int(rec.machine)
		mc := &s.machines[m]
		mc.removeLoad(e.job)
		mc.used -= d
		s.setFit(m)
		rec.demand = -d
		s.live--
		if !rec.released {
			s.expired++
			s.lbDemand -= int(d) // a released job's demand left the bound at Release
		}
	}
	s.integrateLB(c)
}

// integrateLB extends the fractional lower bound to time t with the current
// live demand. Demand zero advances the origin without integrating, which
// also absorbs the -Inf origin before the first arrival.
func (s *Session) integrateLB(t float64) {
	if s.lbDemand > 0 && t > s.lbClock {
		s.cumLB += math.Ceil(float64(s.lbDemand)/float64(s.g)) * (t - s.lbClock)
	}
	s.lbClock = t
}

// lowestFit returns the lowest-indexed machine that fits, opening a fresh
// one when none does (the FirstFit rule): one descent of the fit tree to its
// leftmost leaf with used ≤ g−demand, O(log machines). A fully-idle machine
// has used 0 and always fits, so it is re-used before a new one opens.
func (s *Session) lowestFit(demand int) int {
	limit := int32(s.g - demand)
	if len(s.fit) == 0 || s.fit[1] > limit {
		return s.open()
	}
	i, leaves := 1, len(s.fit)/2
	for i < leaves {
		i *= 2
		if s.fit[i] > limit {
			i++
		}
	}
	return i - leaves
}

// bestFit returns the feasible machine whose busy time grows the least, ties
// to the lowest index, opening a fresh one when none fits — the same argmin
// the kernel's pruned BestFit computes over a completed instance. All slots
// are scanned: an idle machine whose clipped span still touches the arrival
// can have a smaller delta than a fresh one, so idleness is not a shortcut.
func (s *Session) bestFit(iv interval.Interval, demand int) int {
	best, bestDelta := -1, 0.0
	for m := range s.machines {
		mc := &s.machines[m]
		if int(mc.used)+demand > s.g {
			continue
		}
		delta := mc.busy.Delta(iv)
		if best < 0 || delta < bestDelta {
			best, bestDelta = m, delta
		}
	}
	if best < 0 {
		return s.open()
	}
	return best
}

// nextFit keeps one open machine and abandons it permanently on overflow;
// it never returns to the free pool, preserving the replay differential.
// On unbounded streams NextFit's abandoned machines therefore accumulate —
// the rolling-horizon policies of choice are FirstFit and BestFit.
func (s *Session) nextFit(demand int) int {
	if s.cursor >= 0 && int(s.machines[s.cursor].used)+demand <= s.g {
		return s.cursor
	}
	s.cursor = s.open()
	return s.cursor
}

func (s *Session) open() int {
	s.machines = append(s.machines, sessionMachine{})
	m := len(s.machines) - 1
	if m == len(s.fit)/2 {
		s.growFit()
	}
	s.setFit(m)
	if len(s.machines) > s.peakMachines {
		s.peakMachines = len(s.machines)
	}
	return m
}

// growFit doubles the fit tree's leaves (one leaf at first) and rebuilds it
// from the machines' used capacity: O(machines) per doubling, so amortized
// O(1) per opened machine.
func (s *Session) growFit() {
	leaves := max(1, len(s.fit))
	fit := make([]int32, 2*leaves)
	for m := range leaves {
		fit[leaves+m] = noFit
		if m < len(s.machines) {
			fit[leaves+m] = s.machines[m].used
		}
	}
	for i := leaves - 1; i >= 1; i-- {
		fit[i] = min(fit[2*i], fit[2*i+1])
	}
	s.fit = fit
}

// setFit copies machine m's used capacity into its fit-tree leaf and
// refreshes the minima above it, stopping at the first unchanged one.
func (s *Session) setFit(m int) {
	i := len(s.fit)/2 + m
	s.fit[i] = s.machines[m].used
	for i > 1 {
		i /= 2
		v := min(s.fit[2*i], s.fit[2*i+1])
		if s.fit[i] == v {
			return
		}
		s.fit[i] = v
	}
}

// removeLoad drops the load of the given job; order is irrelevant to every
// decision (capacity is a sum, the tail a max), so swap-remove suffices.
func (mc *sessionMachine) removeLoad(job int) {
	for i := range mc.loads {
		if mc.loads[i].job == job {
			last := len(mc.loads) - 1
			mc.loads[i] = mc.loads[last]
			mc.loads = mc.loads[:last]
			return
		}
	}
}

// appendRec retains a new arrival, compacting the departed prefix in place
// before growing: records are reclaimed (base advances, survivors shift
// down in the same backing array) whenever they would otherwise force a
// reallocation and at least half the array is reclaimable, so the backing
// capacity tracks the live-window high-water mark instead of the stream
// length, and steady-state appends never allocate.
func (s *Session) appendRec(r jobRec) {
	if len(s.recs) == cap(s.recs) {
		k := 0
		for k < len(s.recs) && s.recs[k].demand < 0 {
			k++
		}
		if 2*k >= len(s.recs) && k > 0 {
			n := copy(s.recs, s.recs[k:])
			s.recs = s.recs[:n]
			s.base += k
			s.compactions++
		}
	}
	s.recs = append(s.recs, r)
	if len(s.recs) > s.peakWindow {
		s.peakWindow = len(s.recs)
	}
}

// --- manual slice-backed heaps (container/heap boxes through an interface
// and allocates on Push; these stay on the recycled backing arrays) ---

func (s *Session) endPush(e endEntry) {
	h := append(s.endHeap, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].end <= h[i].end {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	s.endHeap = h
}

func (s *Session) endPop() endEntry {
	h := s.endHeap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].end < h[l].end {
			l = r
		}
		if h[i].end <= h[l].end {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	s.endHeap = h
	return top
}

// Jobs returns the number of arrivals placed so far (departed or not); the
// next arrival's feed index.
func (s *Session) Jobs() int { return s.base + len(s.recs) }

// Live returns the number of jobs currently holding capacity.
func (s *Session) Live() int { return s.live }

// Machines returns the number of machines opened so far.
func (s *Session) Machines() int { return len(s.machines) }

// Cost returns the total busy time accrued so far, maintained incrementally.
func (s *Session) Cost() float64 { return s.cost }

// MachineOf returns the machine of the j-th arrival (feed order), or -1 if
// the record left the retained window (departed and compacted away).
func (s *Session) MachineOf(j int) int {
	if j < s.base || j >= s.base+len(s.recs) {
		return -1
	}
	return int(s.recs[j-s.base].machine)
}

// Stats is a point-in-time snapshot of a session's rolling-horizon state and
// competitive telemetry. Reading it does not allocate on a warm session.
// The JSON field names are part of the scripting surface: `busysched online
// -json` and the daemon's per-tenant stats endpoint both emit this struct.
type Stats struct {
	Placed      uint64 `json:"placed"`      // arrivals accepted
	Released    uint64 `json:"released"`    // explicit early departures
	Expired     uint64 `json:"expired"`     // natural departures (clock passed the end)
	Compactions uint64 `json:"compactions"` // retained-window reclaim passes

	Live         int `json:"live"`          // jobs currently holding capacity
	Window       int `json:"window"`        // retained records (live + departed awaiting reclaim)
	WindowCap    int `json:"window_cap"`    // retained-window backing capacity (the memory bound)
	Machines     int `json:"machines"`      // machines opened so far
	IdleMachines int `json:"idle_machines"` // machines currently in the free pool

	PeakLive     int `json:"peak_live"`     // high-water Live
	PeakWindow   int `json:"peak_window"`   // high-water Window
	PeakMachines int `json:"peak_machines"` // high-water Machines

	Cost       float64 `json:"cost"`        // total busy time accrued
	LowerBound float64 `json:"lower_bound"` // fractional bound of the effective stream, live tails projected
	Ratio      float64 `json:"ratio"`       // Cost / LowerBound; the live competitive ratio
}

// Stats reports the session's counters, memory high-water marks and live
// competitive ratio. The lower bound is the exact fractional bound
// ∫⌈D_t/g⌉dt of the effective stream seen so far (early releases clipped at
// their release clock), integrated incrementally event by event, plus the
// projection of the live jobs running to their natural ends — the same
// quantity core.FractionalBound would compute offline over the effective
// instance. Cost likewise bills live spans through their current ends, so
// Ratio compares like with like.
func (s *Session) Stats() Stats {
	st := Stats{
		Placed:       s.placed,
		Released:     s.released,
		Expired:      s.expired,
		Compactions:  s.compactions,
		Live:         s.live,
		Window:       len(s.recs),
		WindowCap:    cap(s.recs),
		Machines:     len(s.machines),
		PeakLive:     s.peakLive,
		PeakWindow:   s.peakWindow,
		PeakMachines: s.peakMachines,
		Cost:         s.cost,
		LowerBound:   s.lowerBound(),
	}
	for m := range s.machines {
		if s.machines[m].used == 0 {
			st.IdleMachines++
		}
	}
	if st.LowerBound > 0 {
		st.Ratio = st.Cost / st.LowerBound
	}
	return st
}

// lowerBound projects the incremental bound past the clock: live demand
// decays at the live jobs' ends, integrated over the sorted tail in the
// session-owned scratch buffer.
func (s *Session) lowerBound() float64 {
	buf := s.tailBuf[:0]
	for i := range s.recs {
		// Released-but-not-yet-retired jobs already left the bound (their
		// clipped interiors end at lbClock); only natural tails project.
		if r := &s.recs[i]; r.demand > 0 && !r.released {
			buf = append(buf, tailEnt{end: r.iv.End, demand: r.demand})
		}
	}
	s.tailBuf = buf
	slices.SortFunc(buf, func(a, b tailEnt) int {
		switch {
		case a.end < b.end:
			return -1
		case a.end > b.end:
			return 1
		default:
			return 0
		}
	})
	lb := s.cumLB
	t := s.lbClock
	d := s.lbDemand
	g := float64(s.g)
	for _, e := range buf {
		if d > 0 && e.end > t {
			lb += math.Ceil(float64(d)/g) * (e.end - t)
			t = e.end
		}
		d -= int(e.demand)
	}
	return lb
}

// Instance returns the retained window as a fresh instance: every record
// still held (live, plus departed records awaiting reclaim) with its
// effective interval and original demand, under its feed index as Job.ID. A
// session that has never compacted — any short-lived one — snapshots its
// complete history; a long-running stream snapshots its recent horizon.
func (s *Session) Instance() *core.Instance {
	jobs := make([]core.Job, len(s.recs))
	for i := range s.recs {
		r := &s.recs[i]
		d := int(r.demand)
		if d < 0 {
			d = -d
		}
		jobs[i] = core.Job{ID: s.base + i, Iv: r.iv, Demand: d}
	}
	return &core.Instance{Name: "online-session", G: s.g, Jobs: jobs}
}

// Snapshot materializes the retained window's decisions as a verified
// core.Schedule over the Instance snapshot, in caller-owned memory.
// Effective intervals make the snapshot self-consistent: a job released
// early appears clipped at its release clock, so capacity freed by the
// release and re-used by later arrivals never double-books a machine.
func (s *Session) Snapshot() (*core.Schedule, error) {
	in := s.Instance()
	byID := make(map[int]int, len(s.recs))
	for i := range s.recs {
		byID[s.base+i] = int(s.recs[i].machine)
	}
	sched, err := core.FromAssignment(in, byID)
	if err != nil {
		return nil, err
	}
	if err := sched.Verify(); err != nil {
		return nil, fmt.Errorf("online: session snapshot infeasible: %w", err)
	}
	return sched, nil
}
