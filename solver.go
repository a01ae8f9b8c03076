package busytime

import (
	"context"
	"fmt"

	"busytime/internal/algo"
	"busytime/internal/algo/boundedlength"
	"busytime/internal/algo/exact"
	"busytime/internal/core"
	"busytime/internal/decomp"
	"busytime/internal/online"

	// Every algorithm package registers itself in init; the facade imports
	// the full set so any registered name is reachable through
	// WithAlgorithm from a pure public consumer. (boundedlength, exact and
	// online are real imports above; portfolio also registers firstfit+ls
	// through its localsearch import.)
	_ "busytime/internal/algo/baselines"
	_ "busytime/internal/algo/cliquealgo"
	_ "busytime/internal/algo/firstfit"
	_ "busytime/internal/algo/laminar"
	_ "busytime/internal/algo/portfolio"
	_ "busytime/internal/algo/properfit"
)

// Solver is a scheduling session: an algorithm selected by name from the
// registry plus the state that makes repeated solving fast — a pool of
// recycled schedule arenas (core.Scratch), one per configured worker, so a
// warm Solver's Solve calls allocate no steady-state schedule state.
// Construct one with New, then reuse it: Solve for single instances,
// SolveBatch/SolveStream for parallel bulk runs (each item runs through
// Solve on one of the same arenas), Online for incremental arrival-order
// sessions.
//
// A Solver is safe for concurrent use. Up to WithWorkers arenas exist; a
// Solve call beyond that waits (honoring its context) for an arena to free.
// Note that concurrency tightens the arena-mode Result lifetime: a
// Result's Schedule (and Detach) must be consumed before any goroutine's
// next Solve can lease the same arena — concurrent pipelines that retain
// schedules should use WithFreshSchedules.
//
// Cancellation is cooperative: every entry point takes a context, batch runs
// observe it per instance and per shard, and the mid-run-cancellable
// algorithms (see Algorithms; currently the exact branch-and-bound) also
// checkpoint it inside a single run, so cancelling returns promptly with the
// context's error even from an exponential search.
type Solver struct {
	cfg config
	// alg is the session's algorithm: the registered row WithAlgorithm
	// names, or the row its package's constructor builds for a
	// per-algorithm option (WithExactLimit, WithLengthBound, WithLookahead).
	alg  algo.Algorithm
	pool chan *core.Scratch
	// runners is the recycled decomposition state, one Runner per worker;
	// nil unless WithIntraWorkers or WithTimeSharding enabled the layer and
	// alg declares a Decompose.
	runners chan *decomp.Runner
}

// New builds a Solver from functional options, validating the configuration
// (unknown algorithm names, cross-option mismatches) eagerly so every later
// Solve starts with a known-good session. The zero-option default is the
// paper's FirstFit with GOMAXPROCS workers, no verification, arena-backed
// results.
func New(opts ...Option) (*Solver, error) {
	cfg := config{algorithm: "firstfit", lookahead: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	a, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	s := &Solver{cfg: cfg, alg: a, pool: core.NewScratchPool(cfg.maxWorkers())}
	if a.Decompose != nil && (cfg.intraWorkers() > 1 || cfg.timeShards() > 1) {
		s.runners = make(chan *decomp.Runner, cfg.maxWorkers())
		for range cap(s.runners) {
			s.runners <- decomp.NewRunner()
		}
	}
	return s, nil
}

// resolve looks the configured algorithm up in the registry and checks the
// per-algorithm options against it. An option that parameterizes the
// algorithm replaces the registered row with the one the algorithm's
// package builds for that value, so Solve runs and decomposes it like any
// other row.
func (c *config) resolve() (algo.Algorithm, error) {
	a, ok := algo.Lookup(c.algorithm)
	if !ok {
		return a, fmt.Errorf("busytime: unknown algorithm %q (registered: %s)", c.algorithm, algorithmNames())
	}
	rule, isOnline := online.RuleByName(c.algorithm)
	switch {
	case c.lookahead > 1 && !isOnline:
		return a, fmt.Errorf("busytime: WithLookahead applies to the online-* algorithms, not %q", c.algorithm)
	case c.exactLimit != 0 && c.algorithm != "exact":
		return a, fmt.Errorf("busytime: WithExactLimit applies to \"exact\", not %q", c.algorithm)
	case c.lengthD != 0 && c.algorithm != "boundedlength":
		return a, fmt.Errorf("busytime: WithLengthBound applies to \"boundedlength\", not %q", c.algorithm)
	case c.lookahead > 1:
		return online.Lookahead(rule, c.lookahead), nil
	case c.exactLimit != 0:
		return exact.New(c.exactLimit), nil
	case c.lengthD != 0:
		return boundedlength.New(c.lengthD), nil
	}
	return a, nil
}

// Algorithm returns the session's registered algorithm name.
func (s *Solver) Algorithm() string { return s.cfg.algorithm }

// Solve schedules one instance and returns the summary Result. The instance
// is validated first (no panics on bad input); ctx cancellation is honored
// while waiting for an arena and, for mid-run-cancellable algorithms, inside
// the run itself. Every Solve runs on an arena leased from the session's
// pool. In the default arena mode the Result's Schedule stays in that
// recycled memory — see Result.Detach; under WithFreshSchedules it is the
// sealed copy Detach makes, taken before the lease ends.
func (s *Solver) Solve(ctx context.Context, in *Instance) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if in == nil {
		return Result{}, fmt.Errorf("busytime: Solve of a nil instance")
	}
	if err := in.CachedValidate(); err != nil {
		return Result{}, err
	}
	if err := context.Cause(ctx); err != nil {
		return Result{}, err
	}
	sc, err := s.acquire(ctx)
	if err != nil {
		return Result{}, err
	}
	// The arena is held until the Result is fully extracted: a concurrent
	// Solve must not recycle this schedule while its cost and machine count
	// are still being read, or while fresh mode copies it. After return, an
	// arena-mode Result's Schedule stays arena-backed — see Result.Detach for
	// the retention contract.
	defer s.release(sc)
	before := sc.Stats()
	sched, dstats, err := s.solveOn(ctx, in, sc)
	if err != nil {
		return Result{}, err
	}
	res, err := s.summarize(in, sched, ArenaStats{
		Warm:        before.Schedules > 0,
		SetupAllocs: sc.Stats().SetupAllocs - before.SetupAllocs,
	})
	if err != nil {
		return Result{}, err
	}
	res.Decomp = dstats
	if s.cfg.fresh {
		res.Schedule = core.CopySchedule(sched)
	}
	return res, nil
}

// solveOn schedules one instance on the leased arena, offering it to the
// decomposition layer first when the session enables one. A declined offer
// (single component, no spare arena idle) falls through to the ordinary
// sequential run; the schedule is identical either way.
func (s *Solver) solveOn(ctx context.Context, in *Instance, sc *core.Scratch) (*core.Schedule, DecompStats, error) {
	if s.runners == nil {
		sched, err := safeRun(ctx, s.alg, in, sc)
		return sched, DecompStats{}, err
	}
	r := <-s.runners
	// Deferred, so a panicking run cannot leak the runner: SolveBatch
	// recovers panics and keeps using this Solver.
	defer func() { s.runners <- r }()
	sched, st, err := r.Solve(ctx, in, s.alg.Decompose, sc, s.pool, s.cfg.intraWorkers(), s.cfg.timeShards())
	if err != nil {
		return nil, st, fmt.Errorf("busytime: %s: %w", s.alg.Name, err)
	}
	if sched == nil {
		sched, err = safeRun(ctx, s.alg, in, sc)
	}
	return sched, st, err
}

// summarize verifies (when configured) and folds one schedule into a Result.
func (s *Solver) summarize(in *Instance, sched *core.Schedule, arena ArenaStats) (Result, error) {
	if s.cfg.verify {
		if err := sched.Verify(); err != nil {
			return Result{}, fmt.Errorf("busytime: %s produced infeasible schedule: %w", s.cfg.algorithm, err)
		}
	}
	return Result{
		Algorithm: s.cfg.algorithm,
		Schedule:  sched,
		Machines:  sched.NumMachines(),
		Cost:      sched.Cost(),
		Bounds:    in.CachedBounds(),
		Arena:     arena,
	}, nil
}

// safeRun invokes the algorithm's Run and wraps its error (a class
// rejection such as "not a clique") as "busytime: <name>: …", keeping
// errors.Is/As working across the facade. The recover is only a guard: a
// panic inside Run is a bug, and it surfaces as the same wrapped error
// instead of taking the caller down.
func safeRun(ctx context.Context, a algo.Algorithm, in *core.Instance, sc *core.Scratch) (sched *core.Schedule, err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case error:
			err = fmt.Errorf("busytime: %s: %w", a.Name, r)
		default:
			err = fmt.Errorf("busytime: %s: %v", a.Name, r)
		}
	}()
	if sched, err = a.Run(ctx, in, sc); err != nil {
		return nil, fmt.Errorf("busytime: %s: %w", a.Name, err)
	}
	return sched, nil
}

// acquire leases an arena from the session pool, honoring ctx while waiting
// for one of the WithWorkers arenas to free.
func (s *Solver) acquire(ctx context.Context) (*core.Scratch, error) {
	select {
	case sc := <-s.pool:
		return sc, nil
	default:
	}
	select {
	case sc := <-s.pool:
		return sc, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

func (s *Solver) release(sc *core.Scratch) { s.pool <- sc }
