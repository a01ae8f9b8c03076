// Package decomp is the component-decomposition layer between the algorithm
// registry and the placement kernel: it splits an instance into the connected
// components of its interval graph (strictly time-disjoint sub-instances),
// solves the components concurrently on worker-private core.Scratch arenas,
// and merges the per-component schedules back into one.
//
// The merge is exact, not approximate. For the greedy family the mapping is
// the identity (component-local machine j → global machine j): components
// never overlap in time, so during the sequential whole-instance run the jobs
// other components placed on a machine neither constrain a job's feasibility
// nor change its span delta, and an inductive argument gives that the global
// run restricted to one component is exactly the component-local run — down
// to argmin ties, which other-component machines always lose (their delta is
// the full job length, the maximum, and ties go to the lowest index). The
// merged schedule is assembled through core.Assembly so the floating-point
// busy-time accumulation is reproduced bit for bit. Algorithms that declare
// Decomposer.Stitch take the fast path: each component's machine records and
// span pieces are adopted wholesale (Assembly.Graft) and only the scalar
// span deltas — recorded by the component runs into a per-component log —
// are replayed in the global processing order (Assembly.PutDelta), turning
// the merge from a second full span-union pass into O(components + machines)
// grafts plus one cheap linear scatter. Algorithms without Stitch (the exact
// solver, which computes assignments off-arena) keep the original Put
// replay. Either way the registry-wide differential suite pins decomposed ==
// sequential bitwise for every algorithm that declares a Decomposer.
//
// Solve additionally offers opt-in time-axis sharding for the regime where
// decomposition starves — a single (or dominant) component. The axis is cut
// at low-crossing bucket boundaries, the resulting shards are solved
// concurrently exactly like components, and the jobs crossing a cut are
// withheld and placed afterwards by a sequential reconciliation pass driven
// by the algorithm's declared ShardRule against the live shard schedules.
// Shard machines map to disjoint global machine ranges, so capacity never
// interacts across shards and the merged schedule is always feasible; the
// result is NOT bitwise-identical to the sequential run, which is why the
// path only runs when the caller asked for shards explicitly.
//
// Decomposition is purely opportunistic: Run and Solve decline (returning a
// nil schedule) when the instance is a single component and sharding is off
// or inapplicable, or when no spare arenas are available, and the caller
// then takes the plain sequential path. Results therefore never depend on
// worker count or pool pressure — only latency does (and, under sharding,
// on the shard count the caller fixed).
package decomp

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"busytime/internal/algo"
	"busytime/internal/core"
	"busytime/internal/interval"
)

// minShardJobs is the floor on the average jobs per time shard: cutting
// below it buys no latency (per-shard fixed costs dominate) while inflating
// the crossing set, so Solve caps the shard count at n/minShardJobs.
const minShardJobs = 32

// Stats describes one decomposition attempt. The per-component slices are
// owned by the Runner and only valid until its next Run; callers that retain
// them must copy.
type Stats struct {
	// Components is the number of connected components the sweep found
	// (reported even when Run declines).
	Components int
	// Workers is the number of goroutines that solved components or shards:
	// the calling goroutine plus the arenas leased from the pool.
	Workers int
	// Largest is the job count of the largest component.
	Largest int
	// Shards is the number of time shards solved when the run took the
	// time-sharding path, 0 otherwise.
	Shards int
	// Crossing is the number of jobs that crossed a shard cut and were
	// placed by the reconciliation pass (0 when Shards == 0).
	Crossing int
	// Sweep, Solve and Merge are the wall times of the three phases:
	// component labeling (plus cut selection when sharding), the concurrent
	// per-component or per-shard runs (as a whole), and the ordered
	// reassembly. Reconcile is the sequential crossing-job placement pass
	// between Solve and Merge (0 when Shards == 0).
	Sweep, Solve, Merge, Reconcile time.Duration
	// Sizes[c] and Times[c] are component (or shard) c's job count and solve
	// wall time, in start (or time) order.
	Sizes []int32
	Times []time.Duration
}

// capture holds the span pieces one worker copied out of its arena after
// each component solve, before the arena's next schedule recycles them:
// pieces is the flat piece store and ends[i] the cumulative piece count
// after the i-th captured machine, so machine runs are pieces[ends[i-1]:
// ends[i]]. Buffers are retained across runs.
type capture struct {
	pieces interval.Set
	ends   []int32
}

// workItem is one unit handed to a resident worker goroutine: solve either
// the component queue (drain) or a single time shard on the w-th arena of
// the carried Runner. Items carry the Runner so the resident goroutines
// reference only their channel and the Runner stays collectable — its
// finalizing cleanup closes the channel and the workers exit.
type workItem struct {
	r     *Runner
	w     int
	shard bool
}

func (it workItem) run() {
	r := it.r
	defer r.wg.Done()
	if it.shard {
		r.solveShard(it.w, r.scs[it.w])
	} else {
		r.drain(it.w, r.arenas[it.w-1])
	}
}

// worker is the resident goroutine body: it references only the channel, so
// an unreachable Runner can be collected (see Runner.dispatch).
func worker(ch chan workItem) {
	for it := range ch {
		it.run()
	}
}

// Runner owns the recyclable state of the decomposition layer: component
// labels, the scattered per-component processing orders, the local machine
// assignments, the stitch-capture buffers and the scheduling/merge
// bookkeeping. A warm Runner re-serving an instance shape performs no
// allocations; like a core.Scratch it must not be shared between goroutines
// (the resident workers it dispatches to coordinate through it, but at most
// one Run is live at a time).
type Runner struct {
	labels   []int32 // job position → component id (start order)
	slabels  []int32 // job position → shard id (crossing jobs get id = shards)
	offsets  []int32 // bucket id → start of its segment in suborder
	cursor   []int32 // per-bucket scatter/replay cursors
	sizes    []int32 // bucket id → job count
	suborder []int32 // global order scattered bucket-major
	localm   []int32 // bucket-local machine per suborder position
	posOrder []int32 // identity order 0..n-1, for algorithms with nil Order
	used     []int32 // bucket id → local machine count
	base     []int32 // bucket id → global machine offset
	keys     []int64 // (size<<32|id) keys for largest-first scheduling
	times    []time.Duration
	errs     []error

	// Stitch-merge capture state: one capture buffer per worker, the global
	// span-delta log (suborder-aligned), and per component the worker that
	// captured it and where in that worker's ends its machines begin.
	deltas     []float64
	caps       []capture
	compWorker []int32
	compSlot   []int32

	// Time-sharding state: per-boundary crossing and start counts, the
	// chosen cut times, per-crossing-job shard choices, captured per-machine
	// busy totals, and the per-shard arenas (scs[0] is the caller's).
	bcross []int32
	bstart []int32
	cuts   []float64
	xshard []int32
	totals []float64
	scs    []*core.Scratch

	// Resident worker pool: an unbuffered channel the (lazily spawned)
	// worker goroutines range over. started counts spawned goroutines; a
	// runtime cleanup closes the channel when the Runner becomes garbage.
	work    chan workItem
	started int

	// Pub is a mount point for a caller-layer companion that should ride
	// the pooled Runner between leases (the public Solver parks its
	// reusable per-component stats buffer here). The decomposition layer
	// never touches it.
	Pub any

	// Per-run shared state the worker goroutines coordinate through.
	ctx    context.Context
	in     *core.Instance
	d      *algo.Decomposer
	arenas []*core.Scratch
	next   atomic.Int64
	wg     sync.WaitGroup
}

// NewRunner returns an empty Runner.
func NewRunner() *Runner { return &Runner{} }

// NewRunnerPool builds a pool of the given width (min 1), mirroring
// core.NewScratchPool: one recyclable Runner per slot on a buffered
// channel, shared across runs so the layer's buffers stay warm.
func NewRunnerPool(workers int) chan *Runner {
	if workers < 1 {
		workers = 1
	}
	pool := make(chan *Runner, workers)
	for i := 0; i < workers; i++ {
		pool <- NewRunner()
	}
	return pool
}

// grow returns buf resized to n, reallocating only beyond retained capacity.
// Contents are not preserved across a reallocation.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// extend is grow preserving existing contents — for buffers whose elements
// own retained sub-buffers (the per-worker capture set).
func extend[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	nb := make([]T, n)
	copy(nb, buf)
	return nb
}

// Run decomposes in, solves the components on up to budget workers (the
// calling goroutine plus spare arenas leased non-blockingly from pool), and
// merges the component schedules into one schedule assembled on sc.
//
// A nil schedule with a nil error means Run declined — single component,
// budget ≤ 1, or no spare arena free — and the caller must run the plain
// sequential path; by the merge-identity argument the result is the same
// either way. The returned Stats are filled as far as the attempt got.
func (r *Runner) Run(ctx context.Context, in *core.Instance, d *algo.Decomposer, sc *core.Scratch, pool chan *core.Scratch, budget int) (*core.Schedule, Stats, error) {
	return r.Solve(ctx, in, d, sc, pool, budget, 0)
}

// Solve is Run plus opt-in time-axis sharding: when shards ≥ 2, the
// algorithm declares a ShardRule, and the component sweep finds a single or
// dominant component (the regime where component parallelism starves), the
// instance's time axis is cut at up to shards−1 low-crossing boundaries,
// the shards are solved concurrently on leased arenas, the withheld
// crossing jobs are reconciled sequentially by the declared rule, and the
// result is assembled exactly like a stacked merge. Sharded schedules are
// feasible but not bitwise-identical to sequential; Stats.Shards > 0 tells
// the caller which path ran. Whenever sharding is inapplicable — axis too
// coarse, too many crossing jobs, no arenas — Solve falls back to the
// component path under the original bitwise contract.
func (r *Runner) Solve(ctx context.Context, in *core.Instance, d *algo.Decomposer, sc *core.Scratch, pool chan *core.Scratch, budget, shards int) (*core.Schedule, Stats, error) {
	var st Stats
	n := in.N()
	if n == 0 || (budget <= 1 && shards <= 1) {
		return nil, st, nil
	}

	t0 := time.Now()
	ncomp, largest := r.sweep(in)
	st.Components, st.Largest = ncomp, largest
	st.Sweep = time.Since(t0)

	if shards > 1 && d.Shard != algo.ShardNone && d.Stitch && !d.Stacked &&
		(ncomp == 1 || 2*largest >= n) {
		if s, err, ok := r.runSharded(ctx, in, d, sc, pool, shards, &st); ok {
			return s, st, err
		}
	}
	if ncomp <= 1 || budget <= 1 {
		return nil, st, nil
	}
	return r.runComponents(ctx, in, d, sc, pool, budget, ncomp, &st)
}

// runComponents is the component path: scatter the global order by
// component, solve components largest-first on the caller plus the leased
// arenas, and merge bitwise-identically to the sequential run.
func (r *Runner) runComponents(ctx context.Context, in *core.Instance, d *algo.Decomposer, sc *core.Scratch, pool chan *core.Scratch, budget, ncomp int, st *Stats) (*core.Schedule, Stats, error) {
	n := in.N()
	extras := r.lease(pool, budget-1)
	if len(extras) == 0 {
		return nil, *st, nil
	}
	defer func() {
		for _, a := range extras {
			pool <- a
		}
	}()

	// Scatter the algorithm's global processing order into contiguous
	// per-component segments (stable: each segment preserves the global
	// order restricted to its component).
	ord := r.order(in, d)
	r.offsets = grow(r.offsets, ncomp+1)
	clear(r.offsets[:ncomp+1])
	for _, c := range r.labels[:n] {
		r.offsets[c+1]++
	}
	r.sizes = grow(r.sizes, ncomp)
	for c := 0; c < ncomp; c++ {
		r.sizes[c] = r.offsets[c+1]
		r.offsets[c+1] += r.offsets[c]
	}
	st.Sizes = r.sizes[:ncomp]
	r.cursor = grow(r.cursor, ncomp)
	copy(r.cursor, r.offsets[:ncomp])
	r.suborder = grow(r.suborder, n)
	for _, j := range ord {
		c := r.labels[j]
		r.suborder[r.cursor[c]] = j
		r.cursor[c]++
	}
	r.localm = grow(r.localm, n)

	// Largest components first, so the tail of the run is small work: pack
	// (size, id) into one int64 key and sort ascending (no comparator
	// closure), then workers claim keys from the back.
	r.keys = grow(r.keys, ncomp)
	for c := 0; c < ncomp; c++ {
		r.keys[c] = int64(r.sizes[c])<<32 | int64(c)
	}
	slices.Sort(r.keys[:ncomp])
	r.times = grow(r.times, ncomp)
	clear(r.times[:ncomp])
	r.errs = grow(r.errs, ncomp)
	clear(r.errs[:ncomp])
	st.Times = r.times[:ncomp]

	workers := 1 + len(extras)
	stitch := d.Stitch && !d.Stacked
	if stitch {
		r.deltas = grow(r.deltas, n)
		r.caps = extend(r.caps, workers)
		for w := 0; w < workers; w++ {
			r.caps[w].pieces = r.caps[w].pieces[:0]
			r.caps[w].ends = r.caps[w].ends[:0]
		}
		r.compWorker = grow(r.compWorker, ncomp)
		r.compSlot = grow(r.compSlot, ncomp)
		r.used = grow(r.used, ncomp)
	}

	t0 := time.Now()
	r.ctx, r.in, r.d = ctx, in, d
	r.next.Store(0)
	st.Workers = workers
	r.dispatch(len(extras), false)
	r.drain(0, sc)
	r.wg.Wait()
	r.ctx, r.in, r.d = nil, nil, nil
	st.Solve = time.Since(t0)

	// Deterministic error selection: the lowest component id, i.e. the
	// earliest-starting failing component, independent of scheduling order.
	for c := 0; c < ncomp; c++ {
		if err := r.errs[c]; err != nil {
			return nil, *st, err
		}
	}

	t0 = time.Now()
	var s *core.Schedule
	if stitch {
		s = r.stitchMerge(in, sc, ord, ncomp)
	} else {
		s = r.merge(in, d, sc, ord, ncomp)
	}
	st.Merge = time.Since(t0)
	return s, *st, nil
}

// order resolves the algorithm's global processing order (the identity when
// the Decomposer declares none).
func (r *Runner) order(in *core.Instance, d *algo.Decomposer) []int32 {
	if d.Order != nil {
		return d.Order(in)
	}
	n := in.N()
	ord := grow(r.posOrder, n)
	for i := range ord {
		ord[i] = int32(i)
	}
	r.posOrder = ord
	return ord
}

// dispatch hands workers items on the resident channel, spawning worker
// goroutines only up to the high-water mark: steady-state runs re-enter
// goroutines parked on the channel instead of spawning per run. The channel
// is closed by a runtime cleanup when the Runner itself becomes garbage, so
// the runner pool of a discarded Solver cannot leak its workers.
func (r *Runner) dispatch(workers int, shard bool) {
	if workers <= 0 {
		return
	}
	if r.work == nil {
		ch := make(chan workItem)
		r.work = ch
		runtime.AddCleanup(r, func(c chan workItem) { close(c) }, ch)
	}
	for r.started < workers {
		r.started++
		go worker(r.work)
	}
	r.wg.Add(workers)
	for w := 1; w <= workers; w++ {
		r.work <- workItem{r: r, w: w, shard: shard}
	}
}

// SweepCount runs only the component sweep and returns the component count,
// exposing the O(n) prefix of every decomposed run for benchmarks and
// instance triage (a count of 1 means the layer would decline).
func (r *Runner) SweepCount(in *core.Instance) int {
	ncomp, _ := r.sweep(in)
	return ncomp
}

// sweep labels every job with its connected component (components numbered
// in start order) via a single reach sweep over the cached start order, and
// returns the component count plus the largest component's job count.
// Strict `>` against the running reach matches closed interval semantics:
// touching intervals are connected, so consecutive components are separated
// by gaps of positive length.
func (r *Runner) sweep(in *core.Instance) (ncomp, largest int) {
	n := in.N()
	r.labels = grow(r.labels, n)
	reach := 0.0
	run := 0
	for _, j := range in.StartOrder() {
		iv := in.Jobs[j].Iv
		if ncomp == 0 || iv.Start > reach {
			if run > largest {
				largest = run
			}
			run = 0
			ncomp++
			reach = iv.End
		} else if iv.End > reach {
			reach = iv.End
		}
		run++
		r.labels[j] = int32(ncomp - 1)
	}
	if run > largest {
		largest = run
	}
	return ncomp, largest
}

// lease claims up to max spare arenas from pool without blocking: intra- and
// inter-instance parallelism draw on the same pool, so total concurrency
// never exceeds the configured worker budget and an empty pool simply means
// no decomposition this run.
func (r *Runner) lease(pool chan *core.Scratch, max int) []*core.Scratch {
	r.arenas = r.arenas[:0]
	for len(r.arenas) < max {
		select {
		case sc := <-pool:
			r.arenas = append(r.arenas, sc)
		default:
			return r.arenas
		}
	}
	return r.arenas
}

// drain claims components largest-first off the shared counter and solves
// each as worker w on sc until none remain.
func (r *Runner) drain(w int, sc *core.Scratch) {
	nt := int64(len(r.keys))
	for {
		t := r.next.Add(1) - 1
		if t >= nt {
			return
		}
		r.solveOne(int(uint32(r.keys[nt-1-t])), w, sc)
	}
}

// solveOne runs one component through the algorithm's RunComponent on the
// worker's arena, recording its error and wall time, and — on the stitch
// path — capturing the component's machine span pieces off the arena before
// the worker's next component recycles them. RunComponent reports
// rejections as errors, so a panic is a bug; it is converted to an error
// here, on the worker goroutine, so it cannot take the process down.
func (r *Runner) solveOne(c, w int, sc *core.Scratch) {
	defer func() {
		switch p := recover().(type) {
		case nil:
		case error:
			r.errs[c] = fmt.Errorf("decomp: component %d: %w", c, p)
		default:
			r.errs[c] = fmt.Errorf("decomp: component %d: %v", c, p)
		}
	}()
	if err := context.Cause(r.ctx); err != nil {
		r.errs[c] = err
		return
	}
	t0 := time.Now()
	lo, hi := r.offsets[c], r.offsets[c+1]
	stitch := r.d.Stitch && !r.d.Stacked
	if stitch {
		// Arm the per-component slice of the global delta log: capacity is
		// pinned to the component's placement count, so a misbehaving run
		// appending more grows away from the log instead of corrupting a
		// neighboring segment (and is caught by the length check below).
		sc.ArmSpanLog(r.deltas[lo:lo:hi])
	}
	err := r.d.RunComponent(r.ctx, r.in, r.suborder[lo:hi], sc, r.localm[lo:hi])
	if err == nil && stitch {
		err = r.capture(c, w, sc, int(hi-lo))
	}
	r.errs[c] = err
	r.times[c] = time.Since(t0)
}

// capture copies component c's per-machine span pieces from worker w's live
// schedule into the worker's capture buffer and records where they start,
// after checking the armed delta log saw exactly one placement per order
// entry (the stitch contract).
func (r *Runner) capture(c, w int, sc *core.Scratch, placements int) error {
	s := sc.LiveSchedule()
	if s == nil || len(s.SpanLog()) != placements {
		got := 0
		if s != nil {
			got = len(s.SpanLog())
		}
		return fmt.Errorf("decomp: component %d: span log recorded %d placements, want %d (Decomposer declares Stitch but RunComponent is not a one-placement-per-job kernel run)", c, got, placements)
	}
	cp := &r.caps[w]
	r.compWorker[c] = int32(w)
	r.compSlot[c] = int32(len(cp.ends))
	nm := s.NumMachines()
	r.used[c] = int32(nm)
	for m := 0; m < nm; m++ {
		cp.pieces = s.AppendMachineSpans(m, cp.pieces)
		cp.ends = append(cp.ends, int32(len(cp.pieces)))
	}
	return nil
}

// stitchMerge assembles the captured component runs under the identity
// machine mapping: per machine, each component's span pieces are grafted
// wholesale in component (= time) order, then one linear pass over the
// global processing order replays every placement's recorded span delta, so
// machine totals and Cost accumulate in exactly the sequential order — the
// whole merge is O(components + machines + n) instead of a second full
// span-union construction.
func (r *Runner) stitchMerge(in *core.Instance, sc *core.Scratch, ord []int32, ncomp int) *core.Schedule {
	machines := int32(0)
	for _, u := range r.used[:ncomp] {
		if u > machines {
			machines = u
		}
	}
	asm := core.BeginAssembly(in, sc, int(machines))
	for c := 0; c < ncomp; c++ {
		cp := &r.caps[r.compWorker[c]]
		slot := int(r.compSlot[c])
		lo := int32(0)
		if slot > 0 {
			lo = cp.ends[slot-1]
		}
		for m := int32(0); m < r.used[c]; m++ {
			hi := cp.ends[slot+int(m)]
			asm.Graft(int(m), cp.pieces[lo:hi])
			lo = hi
		}
	}
	copy(r.cursor, r.offsets[:ncomp])
	for _, j := range ord {
		c := r.labels[j]
		p := r.cursor[c]
		r.cursor[c] = p + 1
		asm.PutDelta(int(j), int(r.localm[p]), r.deltas[p])
	}
	return asm.Finish()
}

// merge reassembles the per-component machine assignments into one sealed
// schedule on the caller's arena, replaying placements in the algorithm's
// global processing order so span accumulation (and hence Cost) reproduces
// the sequential run bit for bit. Identity merging overlays components on
// the shared machine range; stacked merging (the exact solver) offsets each
// component by the machine count of the components before it, in component
// start order — exactly the sequential solver's machineBase accumulation.
func (r *Runner) merge(in *core.Instance, d *algo.Decomposer, sc *core.Scratch, ord []int32, ncomp int) *core.Schedule {
	r.used = grow(r.used, ncomp)
	for c := 0; c < ncomp; c++ {
		hi := int32(0)
		for _, m := range r.localm[r.offsets[c]:r.offsets[c+1]] {
			if m >= hi {
				hi = m + 1
			}
		}
		r.used[c] = hi
	}
	r.base = grow(r.base, ncomp)
	machines := int32(0)
	if d.Stacked {
		for c := 0; c < ncomp; c++ {
			r.base[c] = machines
			machines += r.used[c]
		}
	} else {
		clear(r.base[:ncomp])
		for c := 0; c < ncomp; c++ {
			if r.used[c] > machines {
				machines = r.used[c]
			}
		}
	}
	copy(r.cursor, r.offsets[:ncomp])
	asm := core.BeginAssembly(in, sc, int(machines))
	for _, j := range ord {
		c := r.labels[j]
		p := r.cursor[c]
		r.cursor[c] = p + 1
		asm.Put(int(j), int(r.localm[p]+r.base[c]))
	}
	return asm.Finish()
}

// runSharded is the time-sharding path. It returns ok == false (after
// releasing any leased arenas) when sharding is inapplicable and the caller
// should fall back to the component path: axis too coarse, not enough
// arenas, no low-crossing cuts, or too many crossing jobs.
func (r *Runner) runSharded(ctx context.Context, in *core.Instance, d *algo.Decomposer, sc *core.Scratch, pool chan *core.Scratch, shards int, st *Stats) (*core.Schedule, error, bool) {
	n := in.N()
	ax := in.TimeAxis()
	if ax.NB() < 2 {
		return nil, nil, false
	}
	want := shards
	if max := n / minShardJobs; want > max {
		want = max
	}
	if want < 2 {
		return nil, nil, false
	}

	extras := r.lease(pool, want-1)
	release := func() {
		for _, a := range extras {
			pool <- a
		}
	}
	if len(extras) == 0 {
		return nil, nil, false
	}

	t0 := time.Now()
	cuts := r.selectCuts(in, ax, len(extras)+1)
	k := len(cuts) + 1
	if k < 2 {
		release()
		st.Sweep += time.Since(t0)
		return nil, nil, false
	}
	crossing := r.partition(in, cuts, k)
	// Every crossing job is placed by the sequential reconcile pass; past a
	// quarter of the instance that pass dominates and sharding cannot pay.
	if crossing*4 > n {
		release()
		st.Sweep += time.Since(t0)
		return nil, nil, false
	}

	// Scatter the global order into k shard segments plus the crossing
	// segment (bucket k) — which, being the global order restricted to the
	// crossing jobs, is exactly the reconcile order.
	ord := r.order(in, d)
	r.offsets = grow(r.offsets, k+2)
	clear(r.offsets[:k+2])
	for _, c := range r.slabels[:n] {
		r.offsets[c+1]++
	}
	r.sizes = grow(r.sizes, k+1)
	for c := 0; c <= k; c++ {
		r.sizes[c] = r.offsets[c+1]
		r.offsets[c+1] += r.offsets[c]
	}
	r.cursor = grow(r.cursor, k+1)
	copy(r.cursor, r.offsets[:k+1])
	r.suborder = grow(r.suborder, n)
	for _, j := range ord {
		c := r.slabels[j]
		r.suborder[r.cursor[c]] = j
		r.cursor[c]++
	}
	r.localm = grow(r.localm, n)
	r.times = grow(r.times, k)
	clear(r.times[:k])
	r.errs = grow(r.errs, k)
	clear(r.errs[:k])
	st.Sweep += time.Since(t0)
	st.Shards, st.Crossing = k, crossing
	st.Sizes = r.sizes[:k]
	st.Times = r.times[:k]

	// Solve the shards 1:1 on caller + leased arenas, so every shard's
	// schedule is still live (queryable and growable) for reconciliation.
	r.scs = append(r.scs[:0], sc)
	r.scs = append(r.scs, extras[:k-1]...)
	t0 = time.Now()
	r.ctx, r.in, r.d = ctx, in, d
	st.Workers = k
	r.dispatch(k-1, true)
	r.solveShard(0, sc)
	r.wg.Wait()
	st.Solve = time.Since(t0)

	finish := func() {
		r.ctx, r.in, r.d = nil, nil, nil
		r.scs = r.scs[:0]
		release()
	}
	for s := 0; s < k; s++ {
		if err := r.errs[s]; err != nil {
			finish()
			return nil, err, true
		}
	}

	// Reconcile the crossing jobs sequentially, in the global processing
	// order, against the live shard schedules. Shard machines become
	// disjoint global machine ranges, so a shard-local capacity probe is
	// exact for the corresponding global machine.
	t0 = time.Now()
	nx := int32(crossing)
	xoff := r.offsets[k]
	r.xshard = grow(r.xshard, crossing)
	for i := int32(0); i < nx; i++ {
		p := xoff + i
		s, m := r.reconcileOne(in, d, int(r.suborder[p]), k)
		r.xshard[i] = int32(s)
		r.localm[p] = int32(m)
	}
	st.Reconcile = time.Since(t0)

	// Capture every shard machine's span pieces and busy total, then
	// assemble: graft + credit per machine, one linear pass for the job
	// lists. Totals are captured after reconciliation, so no delta log is
	// needed — each global machine's total is its shard machine's total.
	t0 = time.Now()
	r.caps = extend(r.caps, 1)
	cp := &r.caps[0]
	cp.pieces, cp.ends = cp.pieces[:0], cp.ends[:0]
	r.totals = r.totals[:0]
	r.used = grow(r.used, k)
	r.base = grow(r.base, k)
	machines := int32(0)
	for s := 0; s < k; s++ {
		sch := r.scs[s].LiveSchedule()
		nm := sch.NumMachines()
		r.used[s] = int32(nm)
		r.base[s] = machines
		machines += int32(nm)
		for m := 0; m < nm; m++ {
			cp.pieces = sch.AppendMachineSpans(m, cp.pieces)
			cp.ends = append(cp.ends, int32(len(cp.pieces)))
			r.totals = append(r.totals, sch.MachineBusy(m))
		}
	}
	asm := core.BeginAssembly(in, sc, int(machines))
	lo := int32(0)
	for g := int32(0); g < machines; g++ {
		hi := cp.ends[g]
		asm.Graft(int(g), cp.pieces[lo:hi])
		asm.Credit(int(g), r.totals[g])
		lo = hi
	}
	copy(r.cursor, r.offsets[:k+1])
	for _, j := range ord {
		c := r.slabels[j]
		p := r.cursor[c]
		r.cursor[c] = p + 1
		m := r.localm[p]
		if int(c) == k {
			m += r.base[r.xshard[p-xoff]]
		} else {
			m += r.base[c]
		}
		asm.PutPlaced(int(j), int(m))
	}
	s := asm.Finish()
	st.Merge = time.Since(t0)
	finish()
	return s, nil, true
}

// selectCuts picks up to k−1 cut times for a k-way shard split: for each
// job-count quantile target i·n/k it scans the axis boundaries whose
// started-job count falls within ±n/(4k) of the target and keeps the one
// the fewest jobs cross. Both per-boundary counts come from one O(n + nb)
// pass (a difference array over Axis.Interior ranges and a pointer walk
// over the cached start order); the quantile windows are disjoint, so one
// monotone boundary pointer serves all targets. A target with no boundary
// in its window is skipped — the two shards merge — so the returned cut
// count can be anywhere from 0 to k−1.
func (r *Runner) selectCuts(in *core.Instance, ax interval.Axis, k int) []float64 {
	n := in.N()
	nb := ax.NB()
	r.bcross = grow(r.bcross, nb+2)
	clear(r.bcross[:nb+2])
	for i := range in.Jobs {
		lo, hi := ax.Interior(in.Jobs[i].Iv)
		if lo > hi {
			continue
		}
		r.bcross[lo]++
		r.bcross[hi+1]--
	}
	for b := 1; b <= nb; b++ {
		r.bcross[b] += r.bcross[b-1]
	}
	r.bstart = grow(r.bstart, nb+1)
	so := in.StartOrder()
	p := 0
	for b := 0; b <= nb; b++ {
		t := ax.Boundary(b)
		for p < n && in.Jobs[so[p]].Iv.Start < t {
			p++
		}
		r.bstart[b] = int32(p)
	}

	r.cuts = r.cuts[:0]
	win := n / (4 * k)
	if win < 1 {
		win = 1
	}
	b := 1
	for i := 1; i < k; i++ {
		target := i * n / k
		wlo, whi := target-win, target+win
		best, bestCross := -1, int32(0)
		for b <= nb-1 && int(r.bstart[b]) < wlo {
			b++
		}
		for ; b <= nb-1 && int(r.bstart[b]) <= whi; b++ {
			if best < 0 || r.bcross[b] < bestCross {
				best, bestCross = b, r.bcross[b]
			}
		}
		if best >= 0 {
			r.cuts = append(r.cuts, ax.Boundary(best))
		}
	}
	return r.cuts
}

// partition labels every job with its shard — the unique shard whose time
// range contains it, under closed semantics: a job ending exactly on a cut
// belongs to the shard left of it. Jobs properly spanning a cut get label k
// (the crossing bucket) and are withheld for reconciliation. Returns the
// crossing count.
func (r *Runner) partition(in *core.Instance, cuts []float64, k int) int {
	n := in.N()
	r.slabels = grow(r.slabels, n)
	crossing := 0
	for i := range in.Jobs {
		iv := in.Jobs[i].Iv
		s := sort.SearchFloat64s(cuts, iv.End)
		if s > 0 && iv.Start < cuts[s-1] {
			r.slabels[i] = int32(k)
			crossing++
		} else {
			r.slabels[i] = int32(s)
		}
	}
	return crossing
}

// solveShard runs shard w's segment through RunComponent on sc, leaving the
// result live on the arena for reconciliation and capture. Error handling
// mirrors solveOne.
func (r *Runner) solveShard(w int, sc *core.Scratch) {
	defer func() {
		switch p := recover().(type) {
		case nil:
		case error:
			r.errs[w] = fmt.Errorf("decomp: shard %d: %w", w, p)
		default:
			r.errs[w] = fmt.Errorf("decomp: shard %d: %v", w, p)
		}
	}()
	if err := context.Cause(r.ctx); err != nil {
		r.errs[w] = err
		return
	}
	t0 := time.Now()
	lo, hi := r.offsets[w], r.offsets[w+1]
	r.errs[w] = r.d.RunComponent(r.ctx, r.in, r.suborder[lo:hi], sc, r.localm[lo:hi])
	r.times[w] = time.Since(t0)
}

// reconcileOne places one crossing job by the algorithm's declared rule
// against the live shard schedules and returns its (shard, shard-local
// machine). Every shard schedule is a schedule of the full instance, so
// probes and placements use the job's global index directly; placements are
// visible to subsequent reconciliations. When no machine in any shard fits,
// a machine is opened on the last shard (any choice is feasible — the new
// machine's global range is private).
func (r *Runner) reconcileOne(in *core.Instance, d *algo.Decomposer, j, k int) (int, int) {
	if d.Shard == algo.ShardBestFit {
		bs, bm, bd := -1, -1, 0.0
		for s := 0; s < k; s++ {
			sch := r.scs[s].LiveSchedule()
			m := sch.Placer().BestFitProbe(j)
			if m == core.Unassigned {
				continue
			}
			delta := sch.SpanDelta(m, in.Jobs[j].Iv)
			if bs < 0 || delta < bd {
				bs, bm, bd = s, m, delta
			}
		}
		if bs < 0 {
			return k - 1, r.scs[k-1].LiveSchedule().AssignNew(j)
		}
		r.scs[bs].LiveSchedule().Assign(j, bm)
		return bs, bm
	}
	for s := 0; s < k; s++ {
		sch := r.scs[s].LiveSchedule()
		if m := sch.FirstFitProbe(j); m != core.Unassigned {
			sch.Assign(j, m)
			return s, m
		}
	}
	return k - 1, r.scs[k-1].LiveSchedule().AssignNew(j)
}
