// Package decomp is the component-decomposition layer between the algorithm
// registry and the placement kernel: it splits an instance into the connected
// components of its interval graph (strictly time-disjoint sub-instances),
// groups consecutive components into chunks of about equal job count, solves
// the chunks concurrently on worker-private core.Scratch arenas, and merges
// the per-chunk schedules back into one. Components are numbered in start
// order and every job keeps its component id as its label. The algorithm's
// global order is scattered component-major: each component's jobs form one
// segment in the global order, segments follow in component order, and a
// chunk is the contiguous run of its components' segments. A chunk run
// therefore places its components one after another, and its consecutive
// placements stay inside one component's time window.
//
// The merge is exact, not approximate. For the greedy family the mapping is
// the identity (chunk machine j → global machine j): components never
// overlap in time, so during the sequential whole-instance run the jobs
// other components placed on a machine neither constrain a job's
// feasibility nor change its span delta, and an inductive argument gives
// that a placement's machine and span delta depend only on the earlier
// placements of its own component — down to argmin ties, which
// other-component machines always lose (their delta is the full job length,
// the maximum, and ties go to the lowest index). Any interleaving of whole
// components that keeps each component's order, the component-major chunk
// order included, therefore reproduces the sequential machines and deltas.
// Stacked decomposers (the exact solver) offset each chunk's machines by the
// machine counts of the chunks before it instead.
//
// Every decomposer leaves its chunk as the live schedule on the arena it was
// handed, one kernel placement per job, so one stitch merge serves them all:
// each chunk's machine span pieces are adopted wholesale (Assembly.Graft)
// and only the scalar span deltas — recorded by the chunk runs into a
// per-chunk log — are replayed in the global processing order
// (Assembly.PutDelta). The merge is O(chunks + machines + n) and reproduces
// the sequential floating-point accumulation bit for bit; the registry-wide
// differential suite pins decomposed == sequential for every algorithm that
// declares a Decomposer.
//
// Solve additionally offers opt-in time-axis sharding for the regime where
// decomposition starves — a single (or dominant) component. The axis is cut
// at low-crossing bucket boundaries and every job joins the shard whose time
// range holds its start, so a job crossing a cut stays in the shard it
// starts in. The shards then go through the same solve and stitch as
// chunks, always under the stacked mapping: shard machines take disjoint
// global machine ranges, so capacity never interacts across shards and the
// merged schedule is always feasible. The result is NOT bitwise-identical
// to the sequential run, which is why the path only runs when the caller
// asked for shards explicitly.
//
// Decomposition is purely opportunistic: Solve declines (returning a nil
// schedule) when the instance is a single component and sharding is off or
// inapplicable, or when the chunk path finds no spare arena, and the caller
// then takes the plain sequential path. The shard path never declines for
// want of arenas: it cuts the shards from the instance alone, and the
// calling goroutine solves every shard no leased arena takes. Results
// therefore never depend on worker count or pool pressure — only latency
// does (and, under sharding, on the shard count the caller fixed).
package decomp

import (
	"context"
	"fmt"
	"runtime"
	"slices"
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

// chunksPerWorker caps the chunk count at this many per worker. Each chunk
// costs fixed work — a schedule reset, which clears what the arena's
// previous schedule touched, a shard directory per machine it opens, the
// capture and a claim — so chunks must hold many small components. Fewer,
// larger chunks unbalance the largest-first drain and grow every arena's
// schedule: on the bench ledger's offline-clustered input one chunk per
// worker peaked at 9.13 MB against 7.06 MB at 16.
const chunksPerWorker = 16

// ComponentStat describes one unit a decomposed solve ran: a chunk of
// consecutive whole components, or a time shard when the solve was sharded.
type ComponentStat struct {
	// Jobs is the unit's job count.
	Jobs int
	// Solve is the unit's solve wall time; zero when the unit was never
	// solved (the layer stopped before solving it).
	Solve time.Duration
}

// Stats reports what the layer did during one Solve. The zero value means
// the layer was never consulted. Components alone set (Workers == 0) means
// the layer swept the instance but declined — a single component, or no
// arena was idle — and the caller's sequential path produced the schedule;
// by the merge-identity guarantee the schedule is the same either way.
type Stats struct {
	// Components is the number of connected components of the instance's
	// interval graph (strictly time-disjoint job groups), reported even
	// when Solve declines.
	Components int
	// Workers is how many workers solved chunks or shards concurrently:
	// the calling goroutine plus the arenas leased from the pool.
	Workers int
	// LargestComponent is the job count of the largest component — the
	// lower bound on the critical path of the parallel solve.
	LargestComponent int
	// Shards is the time-shard count when the solve took the time-sharding
	// path, 0 otherwise; CrossingJobs is the number of jobs whose window
	// crosses a shard cut (each is solved in the shard that holds its
	// start).
	Shards, CrossingJobs int
	// SweepTime, SolveTime and MergeTime are the wall times of the three
	// phases: labeling (components, then chunks or shard cuts) and the
	// scatter of the processing order, the concurrent per-chunk or
	// per-shard solves as a whole, and the ordered reassembly.
	SweepTime, SolveTime, MergeTime time.Duration
	// PerComponent lists the units the layer actually solved, in start
	// order: chunks of consecutive whole components (one component per
	// chunk unless the instance has more than 16 components per worker),
	// or the shards when Shards > 0. The slice is the Runner's own buffer:
	// it is valid until the Runner's next Solve. Callers that retain it
	// must copy.
	PerComponent []ComponentStat
}

// Decomposed reports whether the schedule was actually produced by the
// decompose–solve–merge path (component-parallel or time-sharded).
func (d Stats) Decomposed() bool { return d.Workers > 0 }

// Sharded reports whether the schedule was produced by the opt-in
// time-sharding path; such a schedule is feasible but not bitwise-identical
// to the sequential run.
func (d Stats) Sharded() bool { return d.Shards > 0 }

// capture holds the span pieces copied out of arenas after unit solves,
// before an arena's next schedule recycles them: pieces is the flat piece
// store and ends[i] the cumulative piece count after the i-th captured
// machine, so machine runs are pieces[ends[i-1]:ends[i]]. Buffers are
// retained across runs.
type capture struct {
	pieces interval.Set
	ends   []int32
}

// workItem is one task handed to a resident worker goroutine: drain the
// unit queue on the w-th arena of the carried Runner. Items carry the
// Runner so the resident goroutines reference only their channel and the
// Runner stays collectable — its finalizing cleanup closes the channel and
// the workers exit.
type workItem struct {
	r *Runner
	w int
}

func (it workItem) run() {
	defer it.r.wg.Done()
	it.r.drain(it.w, it.r.arenas[it.w-1])
}

// worker is the resident goroutine body: it references only the channel, so
// an unreachable Runner can be collected (see Runner.dispatch).
func worker(ch chan workItem) {
	for it := range ch {
		it.run()
	}
}

// Runner owns the recyclable state of the decomposition layer: component and
// shard labels, the scattered processing order, machines and span deltas,
// the capture buffers and the scheduling/merge bookkeeping. A bucket is a
// label value — a component on the chunk path, a shard on the shard path —
// and owns one segment of suborder. A unit is what one RunComponent call
// solves, one contiguous range of suborder: a chunk (a run of consecutive
// components), or a time shard. A warm Runner re-serving an instance shape
// performs no allocations; like a core.Scratch it must not be shared between
// goroutines (the resident workers it dispatches to coordinate through it,
// but at most one Solve is live at a time).
type Runner struct {
	labels   []int32         // job position → component id (start order)
	slabels  []int32         // job position → shard id
	offsets  []int32         // bucket id → start of its segment in suborder
	cursor   []int32         // per-bucket scatter cursors
	bounds   []int32         // unit id → start of its range in suborder
	units    []ComponentStat // unit id → job count and solve time
	suborder []int32         // global order scattered bucket-major
	pos      []int32         // global order position → its suborder position
	localm   []int32         // machine per suborder position: unit-local, then global
	deltas   []float64       // span delta per suborder position (the span logs)
	posOrder []int32         // identity order 0..n-1, for algorithms with nil Order
	used     []int32         // unit id → machine count
	base     []int32         // unit id → global machine offset
	keys     []int64         // (size<<32|id) keys for largest-first scheduling
	errs     []error

	// Capture state: one buffer per worker, and per unit the buffer holding
	// its machines and where in that buffer's ends they begin.
	caps     []capture
	capOwner []int32
	capSlot  []int32

	// Time-sharding state: per-boundary crossing and start counts and the
	// chosen cut ranks.
	bcross []int32
	bstart []int32
	cuts   []int32

	// Resident worker pool: an unbuffered channel the (lazily spawned)
	// worker goroutines range over. started counts spawned goroutines; a
	// runtime cleanup closes the channel when the Runner becomes garbage.
	work    chan workItem
	started int

	// Per-run shared state the worker goroutines coordinate through; kind
	// names the units in errors ("chunk" or "shard").
	ctx    context.Context
	in     *core.Instance
	d      *algo.Decomposer
	kind   string
	arenas []*core.Scratch
	next   atomic.Int64
	wg     sync.WaitGroup
}

// NewRunner returns an empty Runner.
func NewRunner() *Runner { return &Runner{} }

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

// Solve decomposes in, solves its chunks on up to budget workers (the
// calling goroutine plus spare arenas leased non-blockingly from pool), and
// merges them into one schedule assembled on sc, bitwise identical to the
// sequential run.
//
// With shards ≥ 2, when the algorithm declares Shards and the sweep finds a
// single or dominant component (the regime where component parallelism
// starves), Solve instead cuts the time axis at up to shards−1 low-crossing
// boundaries, puts every job in the shard that holds its start, solves the
// shards — concurrently on the arenas the lease finds idle, in turn on the
// calling goroutine for the rest — and stacks them onto disjoint machine
// ranges. Sharded schedules are feasible but not bitwise-identical to
// sequential; Stats.Shards > 0 tells the caller which path ran, and it
// depends on the instance and shards alone, never on which arenas are idle.
// Whenever sharding is inapplicable — axis too coarse, too many crossing
// jobs — Solve falls back to the chunk path under the bitwise contract.
//
// A nil schedule with a nil error means Solve declined — single component
// and no sharding, budget ≤ 1, or no spare arena free — and the caller must
// run the plain sequential path; by the merge-identity argument the result
// is the same either way. The returned Stats are filled as far as the
// attempt got.
func (r *Runner) Solve(ctx context.Context, in *core.Instance, d *algo.Decomposer, sc *core.Scratch, pool chan *core.Scratch, budget, shards int) (*core.Schedule, Stats, error) {
	var st Stats
	n := in.N()
	if n == 0 || (budget <= 1 && shards <= 1) {
		return nil, st, nil
	}

	t0 := time.Now()
	ncomp, largest := r.sweep(in)
	st.Components, st.LargestComponent = ncomp, largest
	st.SweepTime = time.Since(t0)

	if shards > 1 && d.Shards && (ncomp == 1 || 2*largest >= n) {
		t0 = time.Now()
		k, crossing := r.shard(in, shards)
		st.SweepTime += time.Since(t0)
		if k >= 2 {
			st.Shards, st.CrossingJobs = k, crossing
			r.lease(pool, k-1)
			defer r.release(pool)
			s, err := r.run(ctx, in, d, sc, r.slabels, k, 0, "shard", true, &st)
			return s, st, err
		}
	}
	if ncomp <= 1 || budget <= 1 {
		return nil, st, nil
	}
	extras := r.lease(pool, budget-1)
	if len(extras) == 0 {
		return nil, st, nil
	}
	defer r.release(pool)
	target := chunkTarget(n, ncomp, 1+len(extras))
	s, err := r.run(ctx, in, d, sc, r.labels, ncomp, target, "chunk", d.Stacked, &st)
	return s, st, err
}

// run is the one solve flow of both paths. It scatters the global order
// into the buckets of labels, groups consecutive buckets into units that
// close at target jobs (group), solves the units largest-first on the
// caller's arena sc plus the leased ones, and stitches the captured units
// into one schedule on sc by span-delta replay, stacking the units'
// machines or overlaying them from 0 (the identity mapping). kind names the
// units in errors.
func (r *Runner) run(ctx context.Context, in *core.Instance, d *algo.Decomposer, sc *core.Scratch, labels []int32, buckets, target int, kind string, stacked bool, st *Stats) (*core.Schedule, error) {
	t0 := time.Now()
	workers := 1 + len(r.arenas)
	ord := r.scatter(in, d, labels, buckets)
	units := r.group(buckets, target)
	r.resetUnits(units, workers)
	st.PerComponent = r.units[:units]
	// Largest units first, so the tail of the run is small work: pack
	// (size, id) into one int64 key and sort ascending (no comparator
	// closure), then workers claim keys from the back.
	r.keys = grow(r.keys, units)
	for u := range units {
		r.keys[u] = int64(r.units[u].Jobs)<<32 | int64(u)
	}
	slices.Sort(r.keys)
	st.SweepTime += time.Since(t0)

	t0 = time.Now()
	r.ctx, r.in, r.d, r.kind = ctx, in, d, kind
	r.next.Store(0)
	st.Workers = workers
	r.dispatch(len(r.arenas))
	r.drain(0, sc)
	r.wg.Wait()
	r.ctx, r.in, r.d = nil, nil, nil
	st.SolveTime = time.Since(t0)
	if err := r.firstErr(units); err != nil {
		return nil, err
	}

	t0 = time.Now()
	machines := r.stack(units, stacked)
	s := r.assemble(in, sc, ord, units, machines)
	st.MergeTime = time.Since(t0)
	return s, nil
}

// chunkTarget is the job count at which a chunk of the ncomp components of
// n jobs closes on workers workers, so there are at most
// chunksPerWorker·workers chunks. Up to that many components each form
// their own chunk (target 0). Past it, a chunk closes at the first
// component boundary where it holds at least ⌈n/(chunksPerWorker·workers)⌉
// jobs, so every chunk but the last reaches that target.
func chunkTarget(n, ncomp, workers int) int {
	k := chunksPerWorker * workers
	if ncomp <= k {
		return 0
	}
	return (n + k - 1) / k
}

// group partitions the scattered buckets, in id order, into units of
// consecutive buckets in one O(buckets) pass: a unit closes after the first
// bucket that brings it to at least target jobs (target 0 makes every
// bucket its own unit, empty ones included). It fills bounds and the units'
// job counts, and returns the unit count. units grows by append, so its
// retained capacity follows the unit count, not the bucket count.
func (r *Runner) group(buckets, target int) int {
	r.bounds = grow(r.bounds, buckets+1)
	r.bounds[0] = 0
	r.units = r.units[:0]
	for b := range buckets {
		u := len(r.units)
		if end := r.offsets[b+1]; int(end-r.bounds[u]) >= target || b == buckets-1 {
			r.units = append(r.units, ComponentStat{Jobs: int(end - r.bounds[u])})
			r.bounds[u+1] = end
		}
	}
	return len(r.units)
}

// scatter resolves the algorithm's global processing order and copies it
// into contiguous per-bucket segments of suborder, in bucket id order
// (stable: each segment keeps the global order restricted to its bucket),
// where labels maps each job to one of buckets buckets, recording in pos
// where each global order position landed. It returns the global order.
func (r *Runner) scatter(in *core.Instance, d *algo.Decomposer, labels []int32, buckets int) []int32 {
	n := in.N()
	order := r.order(in, d)
	r.offsets = grow(r.offsets, buckets+1)
	clear(r.offsets)
	for _, c := range labels[:n] {
		r.offsets[c+1]++
	}
	for c := range buckets {
		r.offsets[c+1] += r.offsets[c]
	}
	r.cursor = grow(r.cursor, buckets)
	copy(r.cursor, r.offsets)
	r.suborder = grow(r.suborder, n)
	r.pos = grow(r.pos, n)
	for i, j := range order {
		c := labels[j]
		p := r.cursor[c]
		r.suborder[p], r.pos[i] = j, p
		r.cursor[c] = p + 1
	}
	r.localm = grow(r.localm, n)
	r.deltas = grow(r.deltas, n)
	return order
}

// order resolves the algorithm's global processing order (the identity when
// the Decomposer declares none).
func (r *Runner) order(in *core.Instance, d *algo.Decomposer) []int32 {
	if d.Order != nil {
		return d.Order(in)
	}
	ord := grow(r.posOrder, in.N())
	for i := range ord {
		ord[i] = int32(i)
	}
	r.posOrder = ord
	return ord
}

// resetUnits sizes the per-unit bookkeeping for units units solved by
// workers workers.
func (r *Runner) resetUnits(units, workers int) {
	r.errs = grow(r.errs, units)
	clear(r.errs)
	r.used = grow(r.used, units)
	r.base = grow(r.base, units)
	r.capOwner = grow(r.capOwner, units)
	r.capSlot = grow(r.capSlot, units)
	r.caps = extend(r.caps, workers)
	for w := range r.caps {
		r.caps[w].pieces = r.caps[w].pieces[:0]
		r.caps[w].ends = r.caps[w].ends[:0]
	}
}

// firstErr returns the error of the lowest failing unit — the earliest in
// start order, independent of scheduling order — or nil.
func (r *Runner) firstErr(units int) error {
	for _, err := range r.errs[:units] {
		if err != nil {
			return err
		}
	}
	return nil
}

// dispatch hands workers items on the resident channel, spawning worker
// goroutines only up to the high-water mark: steady-state runs re-enter
// goroutines parked on the channel instead of spawning per run. The channel
// is closed by a runtime cleanup when the Runner itself becomes garbage, so
// the runner pool of a discarded Solver cannot leak its workers.
func (r *Runner) dispatch(workers int) {
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
		r.work <- workItem{r: r, w: w}
	}
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
// never exceeds the configured worker budget. An empty pool means no chunk
// decomposition this run, and a shard run on the caller alone.
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

// release returns the leased arenas to pool.
func (r *Runner) release(pool chan *core.Scratch) {
	for _, a := range r.arenas {
		pool <- a
	}
	r.arenas = r.arenas[:0]
}

// drain claims units largest-first off the shared counter and solves and
// captures each as worker w on sc until none remain.
func (r *Runner) drain(w int, sc *core.Scratch) {
	nt := int64(len(r.keys))
	for {
		t := r.next.Add(1) - 1
		if t >= nt {
			return
		}
		u := int(uint32(r.keys[nt-1-t]))
		if r.solve(u, sc) {
			r.capture(u, w, sc)
		}
	}
}

// solve runs unit u's segment through RunComponent on sc and checks the run
// contract: the armed span log must hold one delta per order entry, the
// deltas the stitch merge replays. It then reads every job's unit-local
// machine off the live schedule and reports success. Errors land in errs[u]
// named by the unit's kind. RunComponent reports rejections as errors, so a
// panic is a bug; it is converted to an error here, on the worker
// goroutine, so it cannot take the process down.
func (r *Runner) solve(u int, sc *core.Scratch) (ok bool) {
	kind := r.kind
	defer func() {
		switch p := recover().(type) {
		case nil:
		case error:
			r.errs[u] = fmt.Errorf("decomp: %s %d: %w", kind, u, p)
		default:
			r.errs[u] = fmt.Errorf("decomp: %s %d: %v", kind, u, p)
		}
	}()
	if err := context.Cause(r.ctx); err != nil {
		r.errs[u] = err
		return false
	}
	t0 := time.Now()
	lo, hi := r.bounds[u], r.bounds[u+1]
	// The log's capacity is pinned to the unit's placement count, so a
	// misbehaving run appending more grows away from the shared buffer
	// instead of corrupting a neighboring segment (and fails the check).
	// A run that fails before drawing its schedule leaves the log armed;
	// the deferred disarm keeps the arena's next schedule out of it.
	sc.ArmSpanLog(r.deltas[lo:lo:hi])
	defer sc.ArmSpanLog(nil)
	err := r.d.RunComponent(r.ctx, r.in, r.suborder[lo:hi], sc)
	s := sc.LiveSchedule()
	if err == nil {
		got := 0
		if s != nil {
			got = len(s.EndSpanLog())
		}
		if got != int(hi-lo) {
			err = fmt.Errorf("decomp: %s %d: span log recorded %d placements, want %d (RunComponent must place each job once on a schedule drawn from its arena)", kind, u, got, hi-lo)
		}
	}
	if err == nil {
		for p := lo; p < hi; p++ {
			r.localm[p] = int32(s.MachineOf(int(r.suborder[p])))
		}
	}
	r.errs[u] = err
	r.units[u].Solve = time.Since(t0)
	return err == nil
}

// capture copies unit u's per-machine span pieces from the live schedule on
// sc into capture buffer w and records where they start and how many
// machines the unit opened.
func (r *Runner) capture(u, w int, sc *core.Scratch) {
	s := sc.LiveSchedule()
	cp := &r.caps[w]
	r.capOwner[u] = int32(w)
	r.capSlot[u] = int32(len(cp.ends))
	nm := s.NumMachines()
	r.used[u] = int32(nm)
	for m := 0; m < nm; m++ {
		cp.pieces = s.AppendMachineSpans(m, cp.pieces)
		cp.ends = append(cp.ends, int32(len(cp.pieces)))
	}
}

// stack sets every unit's global machine base from the units' machine
// counts and returns the global machine count: stacked units take disjoint
// ranges in start order (a running sum), identity units all overlay
// machines from 0.
func (r *Runner) stack(units int, stacked bool) int {
	machines := int32(0)
	for u, nm := range r.used[:units] {
		if stacked {
			r.base[u] = machines
			machines += nm
		} else {
			r.base[u] = 0
			machines = max(machines, nm)
		}
	}
	return int(machines)
}

// assemble merges the captured units into one sealed schedule on sc. Per
// unit in start order, each machine's span pieces are grafted onto global
// machine base+m, so successive grafts onto one machine arrive in time
// order, and base is added to the machines logged for the unit's suborder
// range. One pass over the global order ord then appends every job to its
// machine, reading the job's suborder position from pos.
// The pass replays each job's logged span delta, so machine totals and Cost
// accumulate in the global order — exactly the sequential order on the
// chunk path.
func (r *Runner) assemble(in *core.Instance, sc *core.Scratch, ord []int32, units, machines int) *core.Schedule {
	asm := core.BeginAssembly(in, sc, machines)
	for u := 0; u < units; u++ {
		cp := &r.caps[r.capOwner[u]]
		slot, base := int(r.capSlot[u]), r.base[u]
		lo := int32(0)
		if slot > 0 {
			lo = cp.ends[slot-1]
		}
		for m := int32(0); m < r.used[u]; m++ {
			hi := cp.ends[slot+int(m)]
			asm.Graft(int(base+m), cp.pieces[lo:hi])
			lo = hi
		}
		if base != 0 {
			for p := r.bounds[u]; p < r.bounds[u+1]; p++ {
				r.localm[p] += base
			}
		}
	}
	for i, j := range ord {
		p := r.pos[i]
		asm.PutDelta(int(j), int(r.localm[p]), r.deltas[p])
	}
	return asm.Finish()
}

// shard cuts in's time axis into up to shards shards and labels every job
// with its shard (partition). It returns the shard count and the crossing
// count, or no shards when sharding is inapplicable: axis too coarse, too
// few jobs, no usable cut, or too many crossing jobs. Every verdict depends
// on the instance and shards alone; the pool only decides how many shards
// run at once.
func (r *Runner) shard(in *core.Instance, shards int) (k, crossing int) {
	n := in.N()
	ax := in.TimeAxis()
	want := min(shards, n/minShardJobs)
	if ax.NB() < 2 || want < 2 {
		return 0, 0
	}
	cuts := r.selectCuts(in, ax, want)
	if len(cuts) == 0 {
		return 0, 0
	}
	crossing = r.partition(n, ax, cuts)
	// A crossing job's machine serves none of the next shard's jobs its
	// window overlaps, so the split departs from the sequential run there;
	// past a quarter of the instance that can cost more than sharding saves.
	if crossing*4 > n {
		return 0, 0
	}
	return len(cuts) + 1, crossing
}

// selectCuts picks up to k−1 cuts for a k-way shard split, as the ranks of
// axis boundaries: for each job-count quantile target i·n/k it scans the
// boundaries whose started-job count falls within ±n/(4k) of the target and
// keeps the one the fewest jobs cross. Both per-boundary counts come from
// one O(n + nb) pass (a difference array over the boundaries each job
// crosses and a pointer walk over the cached start order); the quantile
// windows are disjoint, so one monotone boundary pointer serves all
// targets. A target with no boundary in its window is skipped — the two
// shards merge — so the returned cut count can be anywhere from 0 to k−1.
func (r *Runner) selectCuts(in *core.Instance, ax *core.Axis, k int) []int32 {
	n := in.N()
	nb := ax.NB()
	r.bcross = grow(r.bcross, nb+2)
	clear(r.bcross[:nb+2])
	for j := range n {
		lo, hi := ax.CrossedBy(j)
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
		for ; p < n; p++ {
			if start, _ := ax.JobRanks(int(so[p])); start >= ax.BoundaryRank(b) {
				break
			}
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
			r.cuts = append(r.cuts, ax.BoundaryRank(best))
		}
	}
	return r.cuts
}

// partition labels each of the n jobs with the shard whose rank range
// holds its start rank — shard s spans [cuts[s−1], cuts[s]), so a job
// starting on a cut joins the shard right of it — and returns the number
// of crossing jobs, those whose end passes the next cut. A crossing job
// stays in the shard of its start, on that shard's machines. Ranks keep
// the order and equality of the times, so the labels are those of the cut
// times.
func (r *Runner) partition(n int, ax *core.Axis, cuts []int32) (crossing int) {
	r.slabels = grow(r.slabels, n)
	for j := range n {
		start, end := ax.JobRanks(j)
		s, on := slices.BinarySearch(cuts, start)
		if on {
			s++
		}
		r.slabels[j] = int32(s)
		if s < len(cuts) && end > cuts[s] {
			crossing++
		}
	}
	return crossing
}
