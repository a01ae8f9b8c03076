package core

// Scratch is the schedule-state arena: it owns and recycles everything a
// schedule allocates — the schedule record itself, the assignment slice, the
// flat machine-state array (with each machine's span union and shard
// directory), the machine-selection index (the saturation bitmap), and the
// chunked shard pool every machine's time-sharded job lists draw from. A
// worker that schedules a stream of instances through one Scratch stops
// allocating once warm: every reset is a truncation or a clear of retained
// backing arrays, sized on first use from the instance's compressed time
// axis.
//
// Contract: NewSchedule reclaims everything handed out by the previous
// NewSchedule call on the same Scratch, so at most one schedule per Scratch
// is live at a time (the returned pointer is the same recycled record).
// Callers must extract whatever they need from a schedule (cost, machine
// count, assignment, …) before requesting the next one. A Scratch must not
// be shared between goroutines.
type Scratch struct {
	sched  Schedule // the single live schedule, recycled in place
	assign []int
	// index and pool are the recycled machine-selection index and shard
	// arena of the live schedule; reconfigured per instance.
	index machindex
	pool  shardPool
	// allocs counts backing-array growth performed on behalf of schedules
	// (machine records, assignment slice, shard directories);
	// index and pool keep their own counters. See Stats.
	allocs    int
	schedules int
	// pendingLog is a one-shot span-delta log armed by ArmSpanLog: the next
	// NewSchedule attaches it and clears the arming, so exactly one run's
	// placements land in the caller-provided buffer.
	pendingLog []float64
	armed      bool
}

// ScratchStats summarizes the arena traffic of a Scratch.
type ScratchStats struct {
	// Schedules is the number of schedules the scratch has served.
	Schedules int
	// SetupAllocs counts the backing-array allocations the arena performed
	// while setting up schedule state: machine records, the assignment
	// slice, bitmap columns, shard directories and shard-pool chunks. A
	// warm scratch re-serving an instance shape it has seen performs none.
	SetupAllocs int
}

// Stats returns the arena counters accumulated since the scratch was
// created. The busytime Solver snapshots it around each Solve to report
// per-run reuse.
func (sc *Scratch) Stats() ScratchStats {
	return ScratchStats{
		Schedules:   sc.schedules,
		SetupAllocs: sc.allocs + sc.index.allocs + sc.pool.allocs,
	}
}

// NewScratchPool builds an arena pool of the given width (min 1): a buffered
// channel holding one recyclable Scratch per slot. Sharing one pool across
// runs keeps arenas warm from run to run.
func NewScratchPool(workers int) chan *Scratch {
	if workers < 1 {
		workers = 1
	}
	pool := make(chan *Scratch, workers)
	for i := 0; i < workers; i++ {
		pool <- new(Scratch)
	}
	return pool
}

// NewScheduleFrom returns an empty schedule for inst drawn from sc, or a
// fresh one when sc is nil. It is the single construction point through
// which one algorithm body serves both fresh memory and a recycled arena.
func NewScheduleFrom(inst *Instance, sc *Scratch) *Schedule {
	if sc != nil {
		return sc.NewSchedule(inst)
	}
	return NewSchedule(inst)
}

// NewSchedule returns an empty schedule for inst backed by this scratch,
// invalidating (and recycling in place) the schedule returned by the
// previous call.
func (sc *Scratch) NewSchedule(inst *Instance) *Schedule {
	s := blankSchedule(inst, sc)
	s.attachIndex(&sc.index, &sc.pool)
	return s
}

// ArmSpanLog arms a one-shot span-delta log: the next schedule drawn from
// this scratch records every placement's span-union delta by appending to
// buf (normally length 0 with capacity for the expected placement count, so
// a well-behaved run stays inside the caller's backing array). Read the
// result back with Schedule.EndSpanLog. The decomposition layer arms a
// per-chunk segment before each chunk solve, giving the stitch merge the
// exact floating-point deltas to replay in global order. A nil buf disarms
// a log no schedule has picked up yet, so a run that failed before drawing
// its schedule cannot leave the next, unrelated schedule logging into buf.
func (sc *Scratch) ArmSpanLog(buf []float64) {
	sc.pendingLog, sc.armed = buf, buf != nil
}

// LiveSchedule returns the schedule most recently drawn from this scratch
// (nil before the first NewSchedule). Per the arena contract at most one
// schedule per Scratch is live; this accessor lets a coordinator capture
// worker results — span pieces, machine counts, the span log — after worker
// goroutines finish without threading the pointer through their results.
func (sc *Scratch) LiveSchedule() *Schedule {
	if sc.schedules == 0 {
		return nil
	}
	return &sc.sched
}
